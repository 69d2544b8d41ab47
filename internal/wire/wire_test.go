package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

var samples = []uint64{0, 1, 0x7f, 0x80, 0xff, 0x3fff, 0x4000, 1 << 28, 1<<63 - 1, 1 << 63, math.MaxUint64}

func TestEncMatchesEncodingBinary(t *testing.T) {
	var e Enc
	var want []byte
	for _, v := range samples {
		e.Uvarint(v)
		want = binary.AppendUvarint(want, v)
		if got := UvarintLen(v); got != len(binary.AppendUvarint(nil, v)) {
			t.Errorf("UvarintLen(%d) = %d", v, got)
		}
		for _, sv := range []int64{int64(v), -int64(v)} {
			e.Varint(sv)
			want = binary.AppendVarint(want, sv)
			if got := VarintLen(sv); got != len(binary.AppendVarint(nil, sv)) {
				t.Errorf("VarintLen(%d) = %d", sv, got)
			}
		}
	}
	e.Byte(7)
	e.Bytes([]byte("abc"))
	e.String("abc")
	e.Bytes(nil)
	want = append(want, 7, 3, 'a', 'b', 'c', 3, 'a', 'b', 'c', 0)
	if !bytes.Equal(e.Buf, want) {
		t.Fatalf("Enc wrote\n%x, want\n%x", e.Buf, want)
	}

	d := NewDec(e.Buf, 0)
	for _, v := range samples {
		if got := d.Uvarint(); got != v {
			t.Fatalf("Uvarint = %d, want %d", got, v)
		}
		for _, sv := range []int64{int64(v), -int64(v)} {
			if got := d.Varint(); got != sv {
				t.Fatalf("Varint = %d, want %d", got, sv)
			}
		}
	}
	if b := d.Byte(); b != 7 {
		t.Fatalf("Byte = %d", b)
	}
	if b := d.Bytes(); string(b) != "abc" {
		t.Fatalf("Bytes = %q", b)
	}
	if b := d.Bytes(); string(b) != "abc" {
		t.Fatalf("Bytes = %q", b)
	}
	if b := d.Bytes(); len(b) != 0 || d.Bad() {
		t.Fatalf("empty Bytes = %q, bad %v", b, d.Bad())
	}
	if !d.Done() || d.Remaining() != 0 || d.Offset() != len(e.Buf) {
		t.Fatalf("cursor not at the end: offset %d of %d, bad %v", d.Offset(), len(e.Buf), d.Bad())
	}
}

// TestDecAcceptsWhatEncodingBinaryAccepts pins the one truncation rule:
// a varint is accepted exactly when binary.Uvarint accepts it, padded
// (non-minimal) encodings included.
func TestDecAcceptsWhatEncodingBinaryAccepts(t *testing.T) {
	cases := [][]byte{
		{},
		{0x80},
		{0x80, 0x00},       // padded zero
		{0xff, 0x80, 0x00}, // padded 127
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 1<<63
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, // overflows
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
	for _, c := range cases {
		want, n := binary.Uvarint(c)
		d := NewDec(c, 0)
		got := d.Uvarint()
		if (n <= 0) != d.Bad() {
			t.Errorf("%x: bad = %v, encoding/binary consumed %d", c, d.Bad(), n)
		}
		if n > 0 && (got != want || d.Offset() != n) {
			t.Errorf("%x: read %d in %d bytes, want %d in %d", c, got, d.Offset(), want, n)
		}
	}
}

func TestDecErrorsAreSticky(t *testing.T) {
	d := NewDec([]byte{5, 0x80}, 0)
	if v := d.Uvarint(); v != 5 || d.Bad() {
		t.Fatalf("first read: %d, bad %v", v, d.Bad())
	}
	if v := d.Uvarint(); v != 0 || !d.Bad() {
		t.Fatalf("truncated read: %d, bad %v", v, d.Bad())
	}
	if d.Uvarint() != 0 || d.Varint() != 0 || d.Byte() != 0 || len(d.Bytes()) != 0 {
		t.Error("reads after a failure must return zero values")
	}
	if !d.Bad() || d.Done() || d.Remaining() != 0 {
		t.Errorf("bad %v done %v remaining %d after failure", d.Bad(), d.Done(), d.Remaining())
	}

	// A length prefix larger than what remains fails without slicing.
	d = NewDec([]byte{200, 1, 'x'}, 0)
	if b := d.Bytes(); b != nil || !d.Bad() {
		t.Errorf("oversize Bytes = %q, bad %v", b, d.Bad())
	}
	d = NewDec([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0)
	if b := d.Bytes(); b != nil || !d.Bad() {
		t.Errorf("2^64-1 byte claim = %q, bad %v", b, d.Bad())
	}
	d = NewDec(nil, 0)
	if d.Byte() != 0 || !d.Bad() {
		t.Error("Byte on an empty buffer must fail")
	}
}
