// Package wire is the one varint cursor behind every binary format in
// this repository: the report codec (CBR1/CBB1, package report), the
// merge envelope and the spill state file (CBA1/CBS1, package collect)
// and the sufficient-statistics sections they carry (packages report,
// score, quality). One writer and one reader mean one minimal-varint
// rule, one truncation rule and one fast path.
package wire

import "encoding/binary"

// Enc appends fields to Buf. The zero value is ready to use; give Buf
// spare capacity up front and no call allocates.
type Enc struct{ Buf []byte }

// Uvarint appends v as a minimal varint.
func (e *Enc) Uvarint(v uint64) {
	if v < 0x80 {
		e.Buf = append(e.Buf, byte(v))
		return
	}
	e.Buf = binary.AppendUvarint(e.Buf, v)
}

// Varint appends v zigzag-encoded.
func (e *Enc) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.Buf = append(e.Buf, b) }

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// String is Bytes for a string, without converting it first.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// UvarintLen returns how many bytes Uvarint(v) appends.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen returns how many bytes Varint(v) appends.
func VarintLen(v int64) int {
	return UvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// Dec reads fields from a buffer. Errors are sticky: the first read
// that runs off the end (or meets an over-long varint) marks the cursor
// bad, and every later read returns zero, so a caller may decode a
// group of fields and check Bad once.
type Dec struct {
	buf []byte
	off int
	bad bool
}

// NewDec returns a cursor over buf, starting at offset off.
func NewDec(buf []byte, off int) Dec { return Dec{buf: buf, off: off} }

// Bad reports whether any read so far failed.
func (d *Dec) Bad() bool { return d.bad }

// Done reports whether every byte was consumed and no read failed.
func (d *Dec) Done() bool { return !d.bad && d.off == len(d.buf) }

// Offset returns how many bytes of the buffer are consumed.
func (d *Dec) Offset() int { return d.off }

// Remaining returns how many bytes are left. Every field takes at least
// one byte, so it bounds any element count a header claims.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail marks the cursor bad and parks it at the end of the buffer, so
// the fast paths need no separate bad check.
func (d *Dec) fail() {
	d.bad = true
	d.off = len(d.buf)
}

// Uvarint reads one varint. Single-byte values, almost all there are,
// are read here; the rest goes through encoding/binary, so what is
// accepted (non-minimal encodings included) is what it accepts.
func (d *Dec) Uvarint() uint64 {
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	return d.uvarintSlow()
}

func (d *Dec) uvarintSlow() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads one zigzag-encoded varint.
func (d *Dec) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bytes reads a length-prefixed byte string. The result aliases the
// buffer.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}
