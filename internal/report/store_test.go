package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWriteReadAllRoundTrip(t *testing.T) {
	var reports []*Report
	for i := 0; i < 25; i++ {
		r := &Report{
			RunID:    uint64(i),
			Program:  "p",
			Crashed:  i%5 == 0,
			Counters: make([]uint64, 40),
		}
		r.Counters[i%40] = uint64(i * 3)
		reports = append(reports, r)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, reports); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.WireLen() == 0 {
			t.Fatal("decoded report lost its wire size")
		}
		r.wire = 0 // in-process reports have no wire size; ignore for equality
	}
	if !reflect.DeepEqual(sparseForms(reports), got) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadAllRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Report{{Program: "p", Counters: []uint64{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadAll(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := ReadAll(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})); err == nil {
		t.Error("absurd frame length accepted")
	}
	// Empty stream is an empty database.
	if got, err := ReadAll(bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Error("empty stream")
	}
}

func TestFileAndDirStore(t *testing.T) {
	dir := t.TempDir()
	db1 := NewDB("p", 3)
	db2 := NewDB("p", 3)
	for i := 0; i < 10; i++ {
		r := &Report{RunID: uint64(i), Program: "p", Crashed: i == 0, Counters: []uint64{uint64(i), 0, 1}}
		if i < 6 {
			_ = db1.Add(r)
		} else {
			_ = db2.Add(r)
		}
	}
	if err := db1.WriteFile(filepath.Join(dir, "a.cbr")); err != nil {
		t.Fatal(err)
	}
	if err := db2.WriteFile(filepath.Join(dir, "b.cbr")); err != nil {
		t.Fatal(err)
	}
	// A non-report file must be ignored by LoadDir.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	one, err := LoadFile(filepath.Join(dir, "a.cbr"), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Len() != 6 || one.Program != "p" || one.NumCounters != 3 {
		t.Fatalf("loaded: %+v", one)
	}

	all, err := LoadDir(dir, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 10 {
		t.Fatalf("dir load: %d reports", all.Len())
	}
	if len(all.Failures()) != 1 {
		t.Error("outcome lost in persistence")
	}
}

func TestLoadFileValidatesShape(t *testing.T) {
	dir := t.TempDir()
	db := NewDB("p", 3)
	_ = db.Add(&Report{Program: "p", Counters: []uint64{1, 2, 3}})
	path := filepath.Join(dir, "x.cbr")
	if err := db.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, "other-program", 3); err == nil {
		t.Error("program mismatch accepted")
	}
	if _, err := LoadFile(path, "p", 99); err == nil {
		t.Error("counter mismatch accepted")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.cbr"), "", 0); err == nil {
		t.Error("missing file accepted")
	}
}
