package report

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"cbi/internal/telemetry"
)

// This file implements durable report storage: a length-prefixed framing
// of the wire codec, so fleets can append reports to a file (or one file
// per run in a directory) and analyses can re-load them later. This is
// the "central database" of §1 in its simplest durable form.

// ErrBadFrame is returned when a report file is truncated or corrupt.
var ErrBadFrame = errors.New("report: bad frame")

// WriteAll writes reports to w, each as a uvarint length prefix followed
// by the encoded report.
func WriteAll(w io.Writer, reports []*Report) error {
	bw := bufio.NewWriter(w)
	var lenBuf [binary.MaxVarintLen64]byte
	var enc []byte
	for _, r := range reports {
		enc = r.AppendEncoded(enc[:0])
		n := binary.PutUvarint(lenBuf[:], uint64(len(enc)))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := bw.Write(enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAll reads every framed report from r.
func ReadAll(r io.Reader) ([]*Report, error) {
	br := bufio.NewReader(r)
	var out []*Report
	for {
		size, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, ErrBadFrame
		}
		if size > 1<<30 {
			return nil, ErrBadFrame
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, ErrBadFrame
		}
		rep, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
}

// ReadAllPrefix reads framed reports from r like ReadAll, but tolerates
// a torn tail: on truncation or corruption it returns every report
// decoded so far plus the byte offset just past the last good frame,
// with ErrBadFrame (or the decode error) signalling that the tail was
// dropped. A collector replaying its crash-spilled append-only log uses
// the offset to truncate the torn write instead of discarding the log
// wholesale.
func ReadAllPrefix(r io.Reader) (reports []*Report, goodBytes int64, err error) {
	br := bufio.NewReader(r)
	var lenBuf [binary.MaxVarintLen64]byte
	for {
		size, n, rerr := readUvarintCounted(br, lenBuf[:])
		if rerr == io.EOF && n == 0 {
			return reports, goodBytes, nil
		}
		if rerr != nil || size > 1<<30 {
			return reports, goodBytes, ErrBadFrame
		}
		buf := make([]byte, size)
		if _, rerr := io.ReadFull(br, buf); rerr != nil {
			return reports, goodBytes, ErrBadFrame
		}
		rep, derr := Decode(buf)
		if derr != nil {
			return reports, goodBytes, derr
		}
		reports = append(reports, rep)
		goodBytes += int64(n) + int64(size)
	}
}

// readUvarintCounted is binary.ReadUvarint plus a count of bytes
// consumed, so ReadAllPrefix can track exact frame boundaries.
func readUvarintCounted(br *bufio.Reader, scratch []byte) (v uint64, n int, err error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		scratch[n] = b
		n++
		if b < 0x80 {
			u, w := binary.Uvarint(scratch[:n])
			if w != n {
				return 0, n, ErrBadFrame
			}
			return u, n, nil
		}
		if n == len(scratch) {
			return 0, n, ErrBadFrame
		}
	}
}

// WriteFile saves a database to path.
func (db *DB) WriteFile(path string) error {
	defer telemetry.StartSpan("report.write_file").End()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteAll(f, db.Reports); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a report file into a database. program and numCounters
// may be empty/zero to accept whatever the file contains (the first
// report then fixes the expected shape).
func LoadFile(path, program string, numCounters int) (*DB, error) {
	defer telemetry.StartSpan("report.load_file").End()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reports, err := ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	telemetry.C("report_loaded_total").Add(uint64(len(reports)))
	db := NewDB(program, numCounters)
	for _, r := range reports {
		if db.NumCounters == 0 {
			db.NumCounters = r.NumCounters()
		}
		if db.Program == "" {
			db.Program = r.Program
		}
		if err := db.Add(r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return db, nil
}

// LoadDir loads every "*.cbr" file under dir (sorted for determinism)
// into one database.
func LoadDir(dir, program string, numCounters int) (*DB, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".cbr" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	db := NewDB(program, numCounters)
	for _, name := range names {
		sub, err := LoadFile(filepath.Join(dir, name), db.Program, db.NumCounters)
		if err != nil {
			return nil, err
		}
		if db.NumCounters == 0 {
			db.NumCounters = sub.NumCounters
		}
		if db.Program == "" {
			db.Program = sub.Program
		}
		for _, r := range sub.Reports {
			if err := db.Add(r); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
