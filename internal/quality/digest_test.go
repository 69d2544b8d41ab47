package quality

import (
	"bytes"
	"runtime"
	"testing"
)

func testDigest(scale uint64) Digest {
	d := Digest{
		ReportPosts:  10 * scale,
		ReportsPosts: 3 * scale,
		Accepted:     9 * scale,
		BytesCount:   9 * scale,
		BytesSum:     4096 * scale,
		NzSum:        77 * scale,
	}
	for i := range d.Rejected {
		d.Rejected[i] = uint64(i) * scale
	}
	return d
}

func TestDigestEncodeDecodeRoundTrip(t *testing.T) {
	for _, d := range []Digest{{}, testDigest(1), testDigest(1 << 40)} {
		got, err := DecodeDigest(d.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("round trip mismatch: %+v != %+v", got, d)
		}
	}
}

func TestDigestDecodeRejectsMalformed(t *testing.T) {
	good := testDigest(3).Encode()
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0),
	}
	// A digest from a build with a different reason vocabulary must be
	// refused rather than misattributed.
	wrongReasons := append([]byte{}, good...)
	wrongReasons[0] = byte(NumReasons + 1)
	cases["reason-count mismatch"] = wrongReasons
	for name, data := range cases {
		if _, err := DecodeDigest(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDigestSubAndIsZero(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Error("zero digest not IsZero")
	}
	if d := testDigest(2); d.IsZero() {
		t.Error("populated digest IsZero")
	}
	// Only a rejection reason set: still not zero.
	var rej Digest
	rej.Rejected[NumReasons-1] = 1
	if rej.IsZero() {
		t.Error("rejection-only digest IsZero")
	}

	cur, base := testDigest(5), testDigest(2)
	delta := cur.Sub(base)
	if delta != testDigest(3) {
		t.Fatalf("Sub: %+v", delta)
	}
	if !cur.Sub(cur).IsZero() {
		t.Error("self-difference not zero")
	}
}

// TestEngineAbsorbFeedsTotalsAndWindows pins the two absorption paths:
// Absorb (a live delta from a downstream edge) lands in the cumulative
// totals AND the current tick windows, while AbsorbTotals (restart
// seeding) must leave the windows untouched so replayed history cannot
// masquerade as an instant of live traffic.
func TestEngineAbsorbFeedsTotalsAndWindows(t *testing.T) {
	e := New(Config{Interval: -1})
	d := testDigest(1)

	e.Absorb(d)
	if got := e.TotalsDigest(); got != d {
		t.Fatalf("totals after Absorb: %+v, want %+v", got, d)
	}
	if got := e.windows[trkAccept].Load(); got != d.Accepted {
		t.Fatalf("accept window after Absorb: %d, want %d", got, d.Accepted)
	}

	e.AbsorbTotals(d)
	if got := e.TotalsDigest(); got != testDigest(2) {
		t.Fatalf("totals after AbsorbTotals: %+v", got)
	}
	if got := e.windows[trkAccept].Load(); got != d.Accepted {
		t.Fatalf("AbsorbTotals leaked into the window: %d, want %d", got, d.Accepted)
	}

	// Digest deltas are also monotone snapshots: absorbing then
	// subtracting reproduces the delta.
	if got := e.TotalsDigest().Sub(testDigest(1)); got != testDigest(1) {
		t.Fatalf("totals algebra: %+v", got)
	}

	// Nil engine: all three are safe no-ops.
	var nilEngine *Engine
	nilEngine.Absorb(d)
	nilEngine.AbsorbTotals(d)
	if !nilEngine.TotalsDigest().IsZero() {
		t.Error("nil engine digest not zero")
	}
}

// FuzzDigest: on arbitrary bytes the decoder does not panic and
// allocates at most a constant (the mean over repeated calls, so the
// fuzzing engine's own allocations wash out), and whatever it accepts
// re-encodes to bytes that decode to the same digest and encode again
// to themselves.
func FuzzDigest(f *testing.F) {
	for _, d := range []Digest{{}, testDigest(1), testDigest(1 << 40)} {
		enc := d.Encode()
		for cut := 0; cut <= len(enc); cut++ {
			f.Add(enc[:cut])
		}
	}
	f.Add(bytes.Repeat([]byte{0xff}, 11))
	f.Fuzz(func(t *testing.T, data []byte) {
		const reps = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			DecodeDigest(data)
		}
		runtime.ReadMemStats(&after)
		if alloc := (after.TotalAlloc - before.TotalAlloc) / reps; alloc > 256 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		d, err := DecodeDigest(data)
		if err != nil {
			return
		}
		enc := d.Encode()
		again, err := DecodeDigest(enc)
		if err != nil || again != d {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, d)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
