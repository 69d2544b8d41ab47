package report

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleReport() *Report {
	return &Report{
		RunID:    42,
		Program:  "ccrypt",
		Crashed:  true,
		TrapKind: "null dereference",
		ExitCode: -3,
		Counters: []uint64{0, 0, 5, 0, 1, 0, 0, 0, 0, 77},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleReport()
	enc := r.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.WireLen() != len(enc) {
		t.Errorf("WireLen = %d, want %d", got.WireLen(), len(enc))
	}
	if got.Lenient() {
		t.Error("Encode output must not decode leniently")
	}
	got.wire = 0 // in-process reports have no wire size; ignore for equality
	if !reflect.DeepEqual(sparseForm(r), got) {
		t.Fatalf("round trip:\n%+v\n%+v", r, got)
	}
}

func TestEncodeIsSparse(t *testing.T) {
	// A 100k-counter vector with 3 nonzero entries must encode small.
	r := &Report{Program: "bc", Counters: make([]uint64, 100000)}
	r.Counters[5] = 1
	r.Counters[77777] = 3
	r.Counters[99999] = 12
	enc := r.Encode()
	if len(enc) > 64 {
		t.Errorf("sparse encoding is %d bytes", len(enc))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("CBR2....."),
		[]byte("CBR1"),
		append(sampleReport().Encode()[:8], 0xff),
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("%q: want error", c)
		}
	}
}

func TestDecodeRejectsOutOfRangeIndices(t *testing.T) {
	// Hand-craft: valid prefix, then counter index past the vector. The
	// encoding ends with [#nonzero=0, traceLen=0]; replace it with a
	// nonzero entry whose index delta (10) exceeds the 2-counter vector.
	r := &Report{Program: "p", Counters: []uint64{0, 0}}
	enc := r.Encode()
	enc = enc[:len(enc)-2]
	enc = append(enc, 1 /*nonzero*/, 10 /*delta*/, 1 /*value*/, 0 /*traceLen*/)
	if _, err := Decode(enc); err == nil {
		t.Error("want error for out-of-range index")
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	err := quick.Check(func(id uint64, crashed bool, exit int64, n uint8) bool {
		r := &Report{
			RunID:    id,
			Program:  "prog",
			Crashed:  crashed,
			TrapKind: "t",
			ExitCode: exit,
			Counters: make([]uint64, int(n)+1),
		}
		for i := range r.Counters {
			if rng.Intn(4) == 0 {
				r.Counters[i] = uint64(rng.Int63n(1000))
			}
		}
		got, err := Decode(r.Encode())
		if err != nil {
			return false
		}
		got.wire = 0 // in-process reports have no wire size; ignore for equality
		return !got.lenient && reflect.DeepEqual(sparseForm(r), got)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestDBFilters(t *testing.T) {
	db := NewDB("p", 3)
	for i := 0; i < 10; i++ {
		err := db.Add(&Report{
			RunID:    uint64(i),
			Program:  "p",
			Crashed:  i%3 == 0,
			Counters: []uint64{uint64(i), 0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 10 {
		t.Error("len")
	}
	if len(db.Failures()) != 4 || len(db.Successes()) != 6 {
		t.Errorf("failures %d successes %d", len(db.Failures()), len(db.Successes()))
	}
	totals := db.TotalCounts()
	if totals[0] != 45 || totals[1] != 0 || totals[2] != 10 {
		t.Errorf("totals: %v", totals)
	}
}

func TestDBValidation(t *testing.T) {
	db := NewDB("p", 3)
	if err := db.Add(&Report{Program: "other", Counters: make([]uint64, 3)}); err == nil {
		t.Error("program mismatch should fail")
	}
	if err := db.Add(&Report{Program: "p", Counters: make([]uint64, 5)}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestLabel(t *testing.T) {
	if (&Report{Crashed: true}).Label() != 1 || (&Report{}).Label() != 0 {
		t.Error("labels")
	}
}

func TestAggregateMatchesDB(t *testing.T) {
	db := NewDB("p", 4)
	mk := func(crashed bool, counters ...uint64) {
		if err := db.Add(&Report{Program: "p", Crashed: crashed, Counters: counters}); err != nil {
			t.Fatal(err)
		}
	}
	mk(false, 1, 0, 0, 0)
	mk(false, 0, 2, 0, 0)
	mk(true, 0, 0, 3, 0)
	mk(true, 1, 0, 0, 0)

	agg := NewAggregate("p", 4)
	if err := agg.FromDB(db); err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 4 || agg.Crashes != 2 {
		t.Errorf("runs=%d crashes=%d", agg.Runs, agg.Crashes)
	}
	wantSucc := []bool{true, true, false, false}
	wantFail := []bool{true, false, true, false}
	if !reflect.DeepEqual(agg.NonzeroInSuccess, wantSucc) {
		t.Errorf("success bits: %v", agg.NonzeroInSuccess)
	}
	if !reflect.DeepEqual(agg.NonzeroInFailure, wantFail) {
		t.Errorf("failure bits: %v", agg.NonzeroInFailure)
	}
	if !reflect.DeepEqual(agg.Totals, []uint64{2, 2, 3, 0}) {
		t.Errorf("totals: %v", agg.Totals)
	}
}

func TestAggregateRejectsBadShape(t *testing.T) {
	agg := NewAggregate("p", 2)
	if err := agg.Fold(&Report{Counters: make([]uint64, 3)}); err == nil {
		t.Error("want shape error")
	}
}

func TestNonzerosSparseForm(t *testing.T) {
	r := &Report{Counters: []uint64{0, 5, 0, 0, 7, 1}}
	want := []CounterNZ{{1, 5}, {4, 7}, {5, 1}}
	if got := r.Nonzeros(); !reflect.DeepEqual(got, want) {
		t.Errorf("Nonzeros: %v", got)
	}
	// ForEachNonzero visits the same pairs in the same order, cached or not.
	for _, rep := range []*Report{r, {Counters: []uint64{0, 5, 0, 0, 7, 1}}} {
		var got []CounterNZ
		rep.ForEachNonzero(func(i int, c uint64) {
			got = append(got, CounterNZ{int32(i), c})
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ForEachNonzero: %v", got)
		}
	}
	// All-zero report: cached empty, never revisited.
	z := &Report{Counters: make([]uint64, 3)}
	if nz := z.Nonzeros(); len(nz) != 0 {
		t.Errorf("zero report nonzeros: %v", nz)
	}
}

func TestDecodePopulatesSparseForm(t *testing.T) {
	orig := &Report{RunID: 9, Program: "p", Counters: []uint64{0, 0, 3, 0, 9}}
	dec, err := Decode(orig.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.nz == nil {
		t.Fatal("decode did not populate the sparse form")
	}
	if want := []CounterNZ{{2, 3}, {4, 9}}; !reflect.DeepEqual(dec.nz, want) {
		t.Errorf("decoded nonzeros: %v", dec.nz)
	}
}

// Folding a decoded (sparse-cached) report must equal folding the dense
// original.
func TestFoldSparseMatchesDense(t *testing.T) {
	reps := []*Report{
		{Program: "p", Crashed: false, Counters: []uint64{1, 0, 0, 4}},
		{Program: "p", Crashed: true, Counters: []uint64{0, 2, 0, 0}},
		{Program: "p", Crashed: true, Counters: []uint64{0, 0, 0, 0}},
	}
	dense := NewAggregate("p", 4)
	sparse := NewAggregate("p", 4)
	dbDense, dbSparse := NewDB("p", 4), NewDB("p", 4)
	for _, r := range reps {
		if err := dense.Fold(r); err != nil {
			t.Fatal(err)
		}
		_ = dbDense.Add(r)
		dec, err := Decode(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := sparse.Fold(dec); err != nil {
			t.Fatal(err)
		}
		_ = dbSparse.Add(dec)
	}
	if !reflect.DeepEqual(dense, sparse) {
		t.Errorf("aggregates differ:\n%+v\n%+v", dense, sparse)
	}
	if !reflect.DeepEqual(dbDense.TotalCounts(), dbSparse.TotalCounts()) {
		t.Errorf("totals differ: %v vs %v", dbDense.TotalCounts(), dbSparse.TotalCounts())
	}
}
