package report

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestCodecAllocations pins what the ingest hot path pays per call on
// bc-shaped reports: one buffer per Encode and per EncodeBatch, two
// objects per Decode (Report, pairs), and for a whole 32-report request
// two slabs and the result slice.
func TestCodecAllocations(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops entries here (race detector?); the encoder's pooled sizing pass cannot be held to a count")
	}
	batch := bcBatch(32)
	rep := batch[0]
	enc := rep.Encode()
	body := EncodeBatch(batch)
	Decode(enc) // the program name is interned from here on

	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Encode", 1, func() { rep.Encode() }},
		{"EncodeBatch(32)", 2, func() { EncodeBatch(batch) }},
		{"Decode", 2, func() { Decode(enc) }},
		{"DecodeBatch(32)", 3, func() { DecodeBatch(body) }},
	} {
		if got := testing.AllocsPerRun(50, c.f); got > c.max {
			t.Errorf("%s: %.1f allocations per call, want at most %.0f", c.name, got, c.max)
		}
	}
	if got := testing.AllocsPerRun(50, func() { rep.Encode() }); got != 1 {
		t.Errorf("Encode: %.1f allocations per call, want exactly 1", got)
	}
}

// poolKeeps reports whether a sync.Pool hands back what was just put;
// it does not under the race detector (it drops a quarter of all Puts).
func poolKeeps() bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestEncodeSourcesAgree: a report whose vector was filled by hand and
// never primed encodes, through the dense scan, to the bytes its primed
// copy encodes to from the cache, alone and inside a batch, and both
// match the reference encoder.
func TestEncodeSourcesAgree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cold := bcShaped(seed)
		if seed%5 == 0 {
			cold.Trace = []int{4, 0, 1 << 19}
		}
		primed := *cold
		primed.Nonzeros()
		if cold.nz != nil || primed.nz == nil {
			t.Fatal("test set-up: want one report without and one with a cache")
		}
		want := refEncode(cold)
		if got := cold.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: dense-scan encoding differs from the reference", seed)
		}
		if cold.nz != nil {
			t.Fatal("Encode must not build the cache: reports are shared across senders")
		}
		if got := primed.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: cached encoding differs from the dense-scan one", seed)
		}
		mixed := []*Report{cold, &primed, cold}
		if got, want := EncodeBatch(mixed), refEncodeBatch(mixed); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: batch of cached and uncached reports differs from the reference", seed)
		}
	}
}

// allocatedBy returns the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileReport is a short body whose header claims numCounters
// counters and nonzero pairs.
func hostileReport(numCounters, nonzero uint64) []byte {
	b := []byte(magic)
	b = append(b, 1, 0, 0, 0, 0) // run 1, no program, not crashed, no trap kind, exit 0
	b = binary.AppendUvarint(b, numCounters)
	b = binary.AppendUvarint(b, nonzero)
	return append(b, 1, 1, 0) // one pair, no trace
}

// TestHostileLengthsAllocateNothing: length fields an attacker chooses
// are checked against the bytes that remain, and against the receiver's
// counter space, before anything is allocated for them.
func TestHostileLengthsAllocateNothing(t *testing.T) {
	const limit = 64 << 10
	var frames wireFrames
	for i := 0; i < 100; i++ {
		frames.add(hostileReport(1<<28, 1))
	}
	hugeTrace := append((&Report{Counters: make([]uint64, 4)}).Encode(), 0)
	hugeTrace = append(hugeTrace[:len(hugeTrace)-2], 0xff, 0xff, 0x3f) // trace length 2^20-1, no IDs
	for _, c := range []struct {
		name string
		want error
		f    func() error
	}{
		{"2^28 counters against a 1792-counter receiver", ErrShape, func() error {
			_, err := DecodeShaped(hostileReport(1<<28, 1), 1792)
			return err
		}},
		{"2^28 nonzero pairs in 3 bytes", ErrBadReport, func() error {
			_, err := Decode(hostileReport(1<<28, 1<<28))
			return err
		}},
		{"counter space beyond the format's cap", ErrBadReport, func() error {
			_, err := Decode(hostileReport(MaxCounters+1, 1))
			return err
		}},
		{"2^20-1 trace IDs in no bytes", ErrBadReport, func() error {
			_, err := Decode(hugeTrace)
			return err
		}},
		{"CBB1 header claiming 2^20 frames in 6 bytes", ErrBadBatch, func() error {
			_, err := DecodeBatch(append([]byte(batchMagic), 0x80, 0x80, 0x40))
			return err
		}},
		{"batch of 2^28-counter frames against a 1792-counter receiver", ErrShape, func() error {
			_, err := DecodeBatchShaped(frames.batch(), 1792)
			return err
		}},
	} {
		var err error
		got := allocatedBy(func() { err = c.f() })
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
		if got >= limit {
			t.Errorf("%s: allocated %d bytes before rejecting, want < %d", c.name, got, limit)
		}
	}
}

// TestDecodeShaped: the shape hint rejects only a differing vector
// length, and a matching report decodes exactly as Decode decodes it.
func TestDecodeShaped(t *testing.T) {
	enc := sampleReport().Encode()
	want, _ := Decode(enc)
	got, err := DecodeShaped(enc, want.NumCounters())
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("DecodeShaped with the right shape: %+v, %v", got, err)
	}
	if _, err := DecodeShaped(enc, want.NumCounters()+1); !errors.Is(err, ErrShape) {
		t.Errorf("wrong shape: error %v, want ErrShape", err)
	}
	body := EncodeBatch(batchReports(4))
	if _, err := DecodeBatchShaped(body, 50); err != nil {
		t.Errorf("batch with the right shape: %v", err)
	}
	if _, err := DecodeBatchShaped(body, 51); !errors.Is(err, ErrShape) {
		t.Errorf("batch with the wrong shape: error %v, want ErrShape", err)
	}
}

// TestTruncationRejectedAtEveryOffset: every strict prefix of a valid
// report and of a valid batch is rejected, by both decoders, without a
// panic.
func TestTruncationRejectedAtEveryOffset(t *testing.T) {
	r := bcShaped(3)
	r.Crashed, r.TrapKind, r.Trace = true, "out-of-bounds access", []int{1, 300, 2}
	enc := r.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("report cut at %d of %d decoded", cut, len(enc))
		}
	}
	body := EncodeBatch([]*Report{r, bcShaped(4), sampleReport()})
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeBatch(body[:cut]); err == nil {
			t.Fatalf("batch cut at %d of %d decoded", cut, len(body))
		}
	}
}

// TestBatchReportsDoNotShareWritableMemory: reports of one batch are
// carved from shared slabs, so each pair slice is capped at its own end
// — an append to one report's pairs must reallocate rather than write
// into its neighbour's.
func TestBatchReportsDoNotShareWritableMemory(t *testing.T) {
	src := batchReports(6)
	dec, err := DecodeBatch(EncodeBatch(src))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range dec {
		if cap(r.nz) != len(r.nz) {
			t.Fatalf("report %d: slab pairs not capped (%d/%d)", i, len(r.nz), cap(r.nz))
		}
		_ = append(r.nz, CounterNZ{Index: 1, Value: 99})
	}
	for i, r := range dec {
		if !bytes.Equal(r.Encode(), src[i].Encode()) {
			t.Errorf("report %d changed after appends to its neighbours", i)
		}
	}
}

// TestBatchSlabsAreCapped: a batch whose pairs exceed one slab chunk
// still decodes, chunk by chunk, to what the reference decodes.
func TestBatchSlabsAreCapped(t *testing.T) {
	reports := make([]*Report, 9)
	for i := range reports {
		r := &Report{RunID: uint64(i), Program: "wide", Counters: make([]uint64, 3*(slabPairs/4+1))}
		for j := i; j < len(r.Counters); j += 3 {
			r.Counters[j] = uint64(j + 1)
		}
		reports[i] = r
	}
	body := EncodeBatch(reports)
	want, err := refDecodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(body)
	if err != nil || !reflect.DeepEqual(sparseForms(want), got) {
		t.Fatalf("chunked batch decode differs from the reference (err %v)", err)
	}
}

// TestLenientInputDecodesToCanonicalPairs: input Encode never writes — a
// repeated index, an explicit zero, a delta that wraps the index
// backwards — decodes to the pairs of the vector the reference decoder
// fills from it, in Encode's order, and only the first two kinds are
// flagged lenient.
func TestLenientInputDecodesToCanonicalPairs(t *testing.T) {
	base := (&Report{Program: "p", Counters: make([]uint64, 8)}).Encode()
	head := base[:len(base)-2] // drop "#nonzero = 0, trace length = 0"
	const back = ^uint64(0)    // a delta of 2^64-1 steps the index back by one
	for _, c := range []struct {
		name    string
		pairs   []uint64 // delta, value, delta, value, ...
		want    []CounterNZ
		lenient bool
	}{
		{"repeated index: the last value wins", []uint64{3, 5, 0, 9}, []CounterNZ{{3, 9}}, true},
		{"a zero after a value clears it", []uint64{3, 5, 0, 0}, []CounterNZ{}, true},
		{"explicit zero", []uint64{2, 0, 3, 4}, []CounterNZ{{5, 4}}, true},
		{"a value after a zero", []uint64{3, 0, 0, 7, 2, 1}, []CounterNZ{{3, 7}, {5, 1}}, true},
		{"wrap onto a written index", []uint64{5, 1, 1, 2, back, 3}, []CounterNZ{{5, 3}, {6, 2}}, false},
		{"wrap below the first index", []uint64{6, 1, back - 3, 2}, []CounterNZ{{2, 2}, {6, 1}}, false},
	} {
		data := binary.AppendUvarint(append([]byte(nil), head...), uint64(len(c.pairs)/2))
		for _, v := range c.pairs {
			data = binary.AppendUvarint(data, v)
		}
		data = append(data, 0) // no trace
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got.Nonzeros(), c.want) || got.Lenient() != c.lenient || got.Counters != nil {
			t.Errorf("%s: pairs %v lenient %v, want %v and %v", c.name, got.Nonzeros(), got.Lenient(), c.want, c.lenient)
		}
		if ref, err := refDecode(data); err != nil || !reflect.DeepEqual(sparseForm(ref), got) {
			t.Errorf("%s: differs from the reference decoder's vector (%v)", c.name, err)
		}
		if enc := got.Encode(); !bytes.Equal(enc, (&Report{Program: "p", Counters: denseOf(got)}).Encode()) {
			t.Errorf("%s: re-encodes to %x, not to its vector's encoding", c.name, enc)
		}
	}
}

// denseOf expands a report's pairs into a dense vector.
func denseOf(r *Report) []uint64 {
	v := make([]uint64, r.NumCounters())
	r.ForEachNonzero(func(i int, c uint64) { v[i] = c })
	return v
}

// TestDecodeAllocatesForBytesNotCounterSpace: a decoded report costs
// memory in proportion to the bytes that carried it, never to the
// counter space its header claims — a dense vector cost 8 bytes a
// counter, 2 GiB for an 18-byte report claiming MaxCounters and 14 KB
// for each empty report of a 1 792-counter batch.
func TestDecodeAllocatesForBytesNotCounterSpace(t *testing.T) {
	huge := hostileReport(MaxCounters, 1) // one counter set in a 2^28-counter space
	if r, err := Decode(huge); err != nil || r.NumCounters() != MaxCounters || len(r.Nonzeros()) != 1 {
		t.Fatalf("test set-up: %v", err)
	}
	empties := make([]*Report, 256)
	for i := range empties {
		empties[i] = &Report{RunID: uint64(i), Program: "bc", Counters: make([]uint64, 1792)}
	}
	body := EncodeBatch(empties)
	const reps = 20
	for _, c := range []struct {
		name      string
		maxAllocs float64
		maxBytes  uint64
		f         func()
	}{
		// The Report and its one pair.
		{"Decode of a MaxCounters claim", 2, 1 << 10, func() { Decode(huge) }},
		// The result slice and one slab of Report structs: about 160
		// bytes a frame against 16 bytes of body.
		{"DecodeBatch of 256 empty 1792-counter reports", 2, uint64(16 * len(body)), func() { DecodeBatch(body) }},
	} {
		c.f() // intern the program name
		if got := testing.AllocsPerRun(reps, c.f); got > c.maxAllocs {
			t.Errorf("%s: %.1f allocations per call, want at most %.0f", c.name, got, c.maxAllocs)
		}
		perCall := allocatedBy(func() {
			for i := 0; i < reps; i++ {
				c.f()
			}
		}) / reps
		if perCall >= c.maxBytes {
			t.Errorf("%s: %d bytes per call, want < %d", c.name, perCall, c.maxBytes)
		}
	}
}
