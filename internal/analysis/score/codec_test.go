package score

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"cbi/internal/report"
)

func testSpans() []SiteSpan {
	return []SiteSpan{{Base: 0, Len: 3}, {Base: 3, Len: 3}, {Base: 6, Len: 2}}
}

func foldedAccum(t *testing.T, spans []SiteSpan, runs int) *Accum {
	t.Helper()
	a := NewAccum(8, spans)
	for i := 0; i < runs; i++ {
		r := &report.Report{RunID: uint64(i + 1), Crashed: i%3 == 0, Counters: make([]uint64, 8)}
		r.Counters[i%8] = uint64(i + 1)
		r.Counters[(i*5)%8] += 1
		if err := a.Fold(r); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// statsEqual compares the wire-carried statistics (the fold scratch is
// private derived state and intentionally differs between a folded
// accumulator and a decoded one).
func statsEqual(a, b *Accum) bool {
	return a.NumCounters == b.NumCounters &&
		a.Runs == b.Runs && a.Failures == b.Failures &&
		reflect.DeepEqual(a.TrueFail, b.TrueFail) &&
		reflect.DeepEqual(a.TrueOK, b.TrueOK) &&
		reflect.DeepEqual(a.SiteObsFail, b.SiteObsFail) &&
		reflect.DeepEqual(a.SiteObsOK, b.SiteObsOK)
}

func TestAccumStatsRoundTrip(t *testing.T) {
	spans := testSpans()
	a := foldedAccum(t, spans, 30)
	got, err := DecodeAccumStats(a.EncodeStats(), 8, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(a, got) {
		t.Fatalf("round trip mismatch:\n  in: %+v\n out: %+v", a, got)
	}
	// The decoded accumulator must score identically — rankings are the
	// product the root actually serves.
	if !reflect.DeepEqual(Rank(a.Predicates()), Rank(got.Predicates())) {
		t.Fatal("decoded accumulator ranks differently")
	}

	// Span-cardinality disagreement is a refusal, not a silent remap.
	if _, err := DecodeAccumStats(a.EncodeStats(), 8, nil); err == nil {
		t.Error("span mismatch accepted")
	}
	if _, err := DecodeAccumStats(a.EncodeStats(), 9, spans); err == nil {
		t.Error("counter-space mismatch accepted")
	}
}

func TestAccumCloneStatsIsIndependent(t *testing.T) {
	a := foldedAccum(t, testSpans(), 12)
	c := a.CloneStats()
	if !statsEqual(a, c) {
		t.Fatal("clone stats differ from original")
	}
	c.TrueFail[2] += 7
	c.SiteObsOK[1] += 1
	c.Runs++
	if a.TrueFail[2] == c.TrueFail[2] || a.SiteObsOK[1] == c.SiteObsOK[1] || a.Runs == c.Runs {
		t.Fatal("clone shares storage with the original")
	}
}

// TestAccumDiffMergeIdentity mirrors the aggregate algebra for scoring
// state: base + Diff(cur, base) == cur, so delta merges leave the root
// accumulator — and therefore its rankings — bit-identical to a serial
// fold.
func TestAccumDiffMergeIdentity(t *testing.T) {
	spans := testSpans()
	cur := foldedAccum(t, spans, 40)
	base := foldedAccum(t, spans, 25) // same fold prefix

	delta, err := cur.Diff(base)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := base.CloneStats()
	if err := rebuilt.Merge(delta); err != nil {
		t.Fatal(err)
	}
	if !statsEqual(rebuilt, cur) {
		t.Fatal("base + Diff(cur, base) != cur")
	}
	if !reflect.DeepEqual(Rank(rebuilt.Predicates()), Rank(cur.Predicates())) {
		t.Fatal("rebuilt accumulator ranks differently")
	}

	if _, err := base.Diff(cur); err == nil {
		t.Error("regressed diff accepted")
	}
}

func TestDecodeAccumStatsRejectsMalformed(t *testing.T) {
	spans := testSpans()
	good := foldedAccum(t, spans, 8).EncodeStats()
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-2],
		"trailing bytes": append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeAccumStats(data, 8, spans); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzAccumStats: on arbitrary bytes the decoder does not panic,
// allocates no more than the receiver's own counter space and the input
// length account for (the mean over repeated calls, so the fuzzing
// engine's own allocations wash out), and whatever it accepts
// re-encodes to bytes that decode to the same accumulator and encode
// again to themselves.
func FuzzAccumStats(f *testing.F) {
	spans := testSpans()
	good := NewAccum(8, spans)
	for i := 0; i < 30; i++ {
		r := &report.Report{Crashed: i%3 == 0, Counters: make([]uint64, 8)}
		r.Counters[i%8], r.Counters[(i*5)%8] = uint64(i+1), 1
		good.Fold(r)
	}
	enc := good.EncodeStats()
	for cut := 0; cut <= len(enc); cut++ {
		f.Add(enc[:cut])
	}
	f.Add(NewAccum(8, spans).EncodeStats())
	// A counter space, and an entry count, far beyond the receiver's.
	huge := binary.AppendUvarint(nil, 1<<28)
	f.Add(append(huge, 3, 0, 0, 0, 0))
	f.Add(append([]byte{8, 3, 0, 0}, binary.AppendUvarint(nil, 1<<28)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const reps = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			DecodeAccumStats(data, 8, spans)
		}
		runtime.ReadMemStats(&after)
		if alloc := (after.TotalAlloc - before.TotalAlloc) / reps; alloc > 2<<10+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		a, err := DecodeAccumStats(data, 8, spans)
		if err != nil {
			return
		}
		enc := a.EncodeStats()
		again, err := DecodeAccumStats(enc, 8, spans)
		if err != nil {
			t.Fatalf("re-encoded accumulator does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("round trip:\n%+v\n%+v", a, again)
		}
		if !bytes.Equal(again.EncodeStats(), enc) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
