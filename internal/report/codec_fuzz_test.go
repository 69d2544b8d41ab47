package report

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// Differential fuzzers: the shipped codec against the one it replaced
// (reference_test.go). On arbitrary bytes both must accept or both
// reject, and what they accept must decode to the same Report — the
// reference's dense vector taken to pairs (sparseForm), private fields
// (wire length, leniency) included; on arbitrary reports both must write
// the same bytes.

// sparseForm returns the report a decoder yields for r, a report holding
// a dense vector: the vector's nonzero pairs and its length, and no
// vector. The reference decoder and every report built in process hold
// the dense form; the shipped decoder never does.
func sparseForm(r *Report) *Report {
	s := *r
	s.n = len(r.Counters)
	s.nz = appendNonzeros([]CounterNZ{}, r.Counters)
	s.Counters = nil
	return &s
}

func sparseForms(rs []*Report) []*Report {
	out := make([]*Report, len(rs))
	for i, r := range rs {
		out[i] = sparseForm(r)
	}
	return out
}

// bcShaped builds a report of the ingest hot path's shape: 1 792
// counters, about 376 of them nonzero, nearly every value and index gap
// below 128, program "bc".
func bcShaped(seed int64) *Report {
	rng := rand.New(rand.NewSource(seed))
	r := &Report{RunID: uint64(seed), Program: "bc", Counters: make([]uint64, 1792)}
	for i := range r.Counters {
		if rng.Intn(1000) < 210 {
			r.Counters[i] = uint64(rng.Intn(100) + 1)
		}
	}
	// One long gap and one large count, so the multi-byte paths run too.
	for i := 900; i < 1200; i++ {
		r.Counters[i] = 0
	}
	r.Counters[1201] = 1 << 40
	return r
}

func bcBatch(n int) []*Report {
	out := make([]*Report, n)
	for i := range out {
		out[i] = bcShaped(int64(i + 1))
		out[i].Nonzeros()
	}
	return out
}

// fuzzClaimOK reports whether a single-report input claims a counter
// space small enough to let the reference decoder allocate it: the
// fuzzers are after disagreements, not after the 2 GiB the format
// permits. The shipped decoder allocates nothing for the claim and runs
// on every input.
func fuzzClaimOK(data []byte, budget *uint64) bool {
	if len(data) < len(magic) {
		return true
	}
	d := &refDecoder{buf: data, off: len(magic)}
	d.uvarint()
	d.bytes()
	d.byteVal()
	d.bytes()
	d.varint()
	n := d.uvarint()
	if d.err != nil {
		return true
	}
	if n > *budget {
		return false
	}
	*budget -= n
	return true
}

// fuzzBatchClaimOK is fuzzClaimOK over every frame of a batch input.
func fuzzBatchClaimOK(data []byte) bool {
	if !IsBatch(data) {
		return true
	}
	off := len(batchMagic)
	n, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return true
	}
	off += w
	budget := uint64(1 << 22)
	for i := uint64(0); i < n && off < len(data); i++ {
		size, w := binary.Uvarint(data[off:])
		if w <= 0 || size > uint64(len(data)-off-w) {
			return true
		}
		off += w
		if !fuzzClaimOK(data[off:off+int(size)], &budget) {
			return false
		}
		off += int(size)
	}
	return true
}

// lenientSeeds are the encodings no client produces but the decoder has
// always accepted: an explicit zero pair and a repeated index.
func lenientSeeds() [][]byte {
	base := (&Report{Program: "p", Counters: make([]uint64, 8)}).Encode()
	head := base[:len(base)-2] // drop "#nonzero = 0, trace length = 0"
	return [][]byte{
		append(append([]byte(nil), head...), 2, 1, 5, 2, 0, 0), // second pair carries value 0
		append(append([]byte(nil), head...), 2, 3, 5, 0, 9, 0), // second pair repeats index 3
		append(append([]byte(nil), head...), 1, 0, 7, 0),       // delta 0 on the first pair: strict
	}
}

func FuzzDecodeDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CBR1"))
	f.Add(sampleReport().Encode())
	for _, s := range lenientSeeds() {
		f.Add(s)
	}
	sparse := &Report{Program: "bc", Counters: make([]uint64, 100000), Trace: []int{3, 1 << 20, 7}}
	sparse.Counters[5], sparse.Counters[77777] = 1, 1<<63+5 // multi-byte delta and value
	f.Add(sparse.Encode())
	bc := bcShaped(1).Encode()
	for cut := 0; cut <= len(bc); cut++ { // a truncated tail at every offset
		f.Add(bc[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := Decode(data)
		budget := uint64(1 << 22)
		if !fuzzClaimOK(data, &budget) {
			t.Skip("claims a counter space too large for the reference to allocate")
		}
		want, werr := refDecode(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference error %v, codec error %v", werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(sparseForm(want), got) {
			t.Fatalf("decoded reports differ:\nreference %+v\ncodec     %+v", want, got)
		}
	})
}

func FuzzDecodeBatchDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CBB1"))
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(batchReports(5)))
	f.Add(append(EncodeBatch(batchReports(2)), 0)) // trailing byte
	f.Add(append([]byte("CBB1"), 0x80, 0x80, 0x40))
	var lenient wireFrames
	for _, s := range lenientSeeds() {
		lenient.add(s)
	}
	f.Add(lenient.batch())
	body := EncodeBatch(bcBatch(2))
	for cut := 0; cut <= len(body); cut += 7 {
		f.Add(body[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := DecodeBatch(data)
		if !fuzzBatchClaimOK(data) {
			t.Skip("claims counter spaces too large for the reference to allocate")
		}
		want, werr := refDecodeBatch(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference error %v, codec error %v", werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(sparseForms(want), got) {
			t.Fatalf("decoded batches differ:\nreference %+v\ncodec     %+v", want, got)
		}
	})
}

// wireFrames assembles a batch body from already-encoded frames.
type wireFrames struct {
	n    int
	body []byte
}

func (w *wireFrames) add(frame []byte) {
	w.n++
	w.body = binary.AppendUvarint(w.body, uint64(len(frame)))
	w.body = append(w.body, frame...)
}

func (w *wireFrames) batch() []byte {
	out := binary.AppendUvarint([]byte(batchMagic), uint64(w.n))
	return append(out, w.body...)
}

// fuzzBuildReports derives reports from fuzz input: the bytes seed a
// generator and pick the features the encoder's two sources (cache,
// dense vector) and its size pass must agree on.
func fuzzBuildReports(data []byte) []*Report {
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	reports := make([]*Report, rng.Intn(5))
	for i := range reports {
		r := &Report{
			RunID:    rng.Uint64() >> uint(rng.Intn(64)),
			Program:  []string{"", "bc", "a-rather-longer-program-name"}[rng.Intn(3)],
			Crashed:  rng.Intn(2) == 0,
			ExitCode: rng.Int63() - rng.Int63(),
		}
		if r.Crashed {
			r.TrapKind = "out-of-bounds access"
		}
		if rng.Intn(8) != 0 { // else: an empty vector
			r.Counters = make([]uint64, 1+rng.Intn(600))
			fill := rng.Intn(5) // 0: all zero
			for j := range r.Counters {
				if rng.Intn(4) < fill {
					r.Counters[j] = rng.Uint64() >> uint(rng.Intn(64)) // small and ≥ 2^63 alike
				}
			}
		}
		if rng.Intn(3) == 0 {
			r.Trace = make([]int, 1+rng.Intn(6))
			for j := range r.Trace {
				r.Trace[j] = rng.Intn(1 << uint(rng.Intn(30)))
			}
		}
		if rng.Intn(2) == 0 {
			r.Nonzeros() // prime the cache: the encoder's other source
		}
		reports[i] = r
	}
	return reports
}

func FuzzEncodeDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 3})
	f.Add([]byte("encode"))
	f.Add(bytes.Repeat([]byte{0xa5}, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		reports := fuzzBuildReports(data)
		for _, r := range reports {
			primed := r.nz != nil
			enc := r.Encode()
			if want := refEncode(r); !bytes.Equal(enc, want) {
				t.Fatalf("Encode differs from the reference (cache primed: %v):\n%x\n%x", primed, enc, want)
			}
			if (r.nz != nil) != primed {
				t.Fatal("Encode changed the report's cache")
			}
			if got := r.AppendEncoded([]byte("xy")); !bytes.Equal(got[2:], enc) || string(got[:2]) != "xy" {
				t.Fatal("AppendEncoded does not append Encode's bytes")
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode(Encode(r)): %v", err)
			}
			want := sparseForm(r)
			want.wire = len(enc)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round trip:\nwant %+v\ngot  %+v", want, got)
			}
		}
		body := EncodeBatch(reports)
		if want := refEncodeBatch(reports); !bytes.Equal(body, want) {
			t.Fatalf("EncodeBatch differs from the reference:\n%x\n%x", body, want)
		}
		dec, err := DecodeBatch(body)
		if err != nil || len(dec) != len(reports) {
			t.Fatalf("DecodeBatch(EncodeBatch): %d reports, %v", len(dec), err)
		}
	})
}
