package report

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// fuzzReports derives a deterministic report slice from fuzz input: the
// seed bytes choose counts, shapes, and counter values. Keeping the
// construction total (any byte string maps to some valid slice) lets
// the fuzzer explore the codec instead of fighting a parser.
func fuzzReports(data []byte) []*Report {
	at := func(i int) uint64 {
		if len(data) == 0 {
			return 0
		}
		return uint64(data[i%len(data)])
	}
	n := int(at(0)) % 20
	width := int(at(1))%64 + 1
	reports := make([]*Report, 0, n)
	for i := 0; i < n; i++ {
		r := &Report{
			RunID:    at(i) + uint64(i)<<8,
			Program:  "fuzz-p",
			Crashed:  at(i+2)%3 == 0,
			Counters: make([]uint64, width),
		}
		for j := range r.Counters {
			r.Counters[j] = at(i+j) * at(j)
		}
		reports = append(reports, r)
	}
	return reports
}

func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 8, 1, 2, 3})
	f.Add([]byte{19, 63, 0xff, 0, 0xff, 0, 7})
	f.Add(bytes.Repeat([]byte{0xaa, 1}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		reports := fuzzReports(data)
		var buf bytes.Buffer
		if err := WriteAll(&buf, reports); err != nil {
			t.Fatalf("WriteAll: %v", err)
		}
		stream := buf.Bytes()

		got, err := ReadAll(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("ReadAll of own output: %v", err)
		}
		for _, r := range got {
			r.wire = 0 // in-process reports have no wire size
		}
		if len(got) != len(reports) || (len(got) > 0 && !reflect.DeepEqual(sparseForms(reports), got)) {
			t.Fatalf("round trip mismatch: wrote %d, read %d", len(reports), len(got))
		}

		// Every truncation of a valid stream must be recoverable by the
		// tolerant reader: the intact prefix comes back, goodBytes marks
		// exactly where it ends, and the remainder re-reads cleanly.
		for _, cut := range []int{len(stream) / 3, len(stream) / 2, len(stream) - 1} {
			if cut < 0 || cut >= len(stream) {
				continue
			}
			// err is ErrBadFrame when the cut lands mid-frame and nil when
			// it happens to land on a boundary; both are fine — what
			// matters is the recovered prefix.
			prefix, goodBytes, _ := ReadAllPrefix(bytes.NewReader(stream[:cut]))
			if goodBytes > int64(cut) {
				t.Fatalf("goodBytes %d beyond truncation point %d", goodBytes, cut)
			}
			if len(prefix) > len(reports) {
				t.Fatalf("prefix read %d reports from a %d-report stream", len(prefix), len(reports))
			}
			reread, err := ReadAll(bytes.NewReader(stream[:goodBytes]))
			if err != nil || len(reread) != len(prefix) {
				t.Fatalf("goodBytes prefix not self-consistent: %v (%d vs %d)", err, len(reread), len(prefix))
			}
		}
	})
}

func FuzzReadAllPrefixArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte("CBR1 this is not a report stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes must never panic the tolerant reader, and
		// whatever prefix it accepts must re-read as full frames. A
		// non-nil error just reports that a tail was dropped.
		reports, goodBytes, _ := ReadAllPrefix(bytes.NewReader(data))
		if goodBytes < 0 || goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d out of range [0,%d]", goodBytes, len(data))
		}
		reread, err := ReadAll(bytes.NewReader(data[:goodBytes]))
		if err != nil {
			t.Fatalf("accepted prefix does not re-read: %v", err)
		}
		if len(reread) != len(reports) {
			t.Fatalf("prefix re-read %d reports, first pass saw %d", len(reread), len(reports))
		}
	})
}

// TestReadAllPrefixCorruptTail pins the spill-replay contract: a log
// whose final frame was torn by a crash yields every complete frame and
// a goodBytes offset the caller can truncate the file to.
func TestReadAllPrefixCorruptTail(t *testing.T) {
	var reports []*Report
	for i := 0; i < 8; i++ {
		r := &Report{RunID: uint64(i + 1), Program: "p", Counters: []uint64{uint64(i), 3, 0}}
		r.Nonzeros()
		reports = append(reports, r)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, reports); err != nil {
		t.Fatal(err)
	}
	clean := int64(buf.Len())

	// A torn frame: a plausible length prefix followed by too few bytes.
	// The tolerant reader recovers the prefix and reports the drop.
	torn := append(append([]byte{}, buf.Bytes()...), 0x20, 0xde, 0xad)
	got, goodBytes, err := ReadAllPrefix(bytes.NewReader(torn))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn tail: err = %v, want ErrBadFrame", err)
	}
	if len(got) != len(reports) || goodBytes != clean {
		t.Fatalf("torn tail: %d reports, goodBytes %d; want %d, %d", len(got), goodBytes, len(reports), clean)
	}

	// Garbage inside the last full frame: the frame decodes or it
	// doesn't, but the seven intact frames before it must survive.
	corrupt := append([]byte{}, buf.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0xff
	got, goodBytes, _ = ReadAllPrefix(bytes.NewReader(corrupt))
	if len(got) < len(reports)-1 {
		t.Fatalf("lost intact frames before the corrupt one: %d of %d", len(got), len(reports))
	}
	if _, err := ReadAll(bytes.NewReader(corrupt[:goodBytes])); err != nil {
		t.Fatalf("goodBytes prefix not clean after corruption: %v", err)
	}

	// The strict reader must refuse the same corruption outright.
	if _, err := ReadAll(bytes.NewReader(torn)); err == nil {
		t.Error("strict ReadAll accepted a torn tail")
	}
}
