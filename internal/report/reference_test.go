package report

// The report codec as it stood before the one-pass rewrite, moved here
// verbatim (only the names changed: refEncoder/refDecoder, refEncode,
// refDecode, refEncodeBatch, refDecodeBatch). It is the oracle of the
// differential fuzzers in codec_fuzz_test.go and of the byte-identity
// tests: the shipped codec must produce the same bytes, accept and
// reject the same inputs, and decode to the same Report. It is not
// built into any binary.

import (
	"encoding/binary"
)

type refEncoder struct{ buf []byte }

func (e *refEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *refEncoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *refEncoder) bytes(b []byte)   { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *refEncoder) byteVal(b byte)   { e.buf = append(e.buf, b) }

// refEncode is the former (*Report).Encode.
func refEncode(r *Report) []byte {
	e := &refEncoder{buf: append([]byte(nil), magic...)}
	e.uvarint(r.RunID)
	e.bytes([]byte(r.Program))
	if r.Crashed {
		e.byteVal(1)
	} else {
		e.byteVal(0)
	}
	e.bytes([]byte(r.TrapKind))
	e.varint(r.ExitCode)
	e.uvarint(uint64(len(r.Counters)))
	nonzero := 0
	for _, c := range r.Counters {
		if c != 0 {
			nonzero++
		}
	}
	e.uvarint(uint64(nonzero))
	prev := 0
	for i, c := range r.Counters {
		if c == 0 {
			continue
		}
		e.uvarint(uint64(i - prev))
		e.uvarint(c)
		prev = i
	}
	e.uvarint(uint64(len(r.Trace)))
	for _, id := range r.Trace {
		e.uvarint(uint64(id))
	}
	return e.buf
}

type refDecoder struct {
	buf []byte
	off int
	err error
}

func (d *refDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrBadReport
		return 0
	}
	d.off += n
	return v
}

func (d *refDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrBadReport
		return 0
	}
	d.off += n
	return v
}

func (d *refDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = ErrBadReport
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *refDecoder) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = ErrBadReport
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// refDecode is the former Decode.
func refDecode(data []byte) (*Report, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, ErrBadReport
	}
	d := &refDecoder{buf: data, off: len(magic)}
	r := &Report{wire: len(data)}
	r.RunID = d.uvarint()
	r.Program = string(d.bytes())
	r.Crashed = d.byteVal() != 0
	r.TrapKind = string(d.bytes())
	r.ExitCode = d.varint()
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > 1<<28 {
		return nil, ErrBadReport
	}
	r.Counters = make([]uint64, n)
	nz := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if nz > n {
		return nil, ErrBadReport
	}
	// The wire format is already sparse (index-delta, value pairs), so the
	// in-memory sparse form comes for free during decoding: downstream
	// folds and analyses iterate it instead of rescanning the dense vector.
	r.nz = make([]CounterNZ, 0, nz)
	cacheOK := true
	idx := 0
	for i := uint64(0); i < nz; i++ {
		delta := d.uvarint()
		val := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		idx += int(delta)
		if idx < 0 || idx >= len(r.Counters) {
			return nil, ErrBadReport
		}
		r.Counters[idx] = val
		if val != 0 {
			r.nz = append(r.nz, CounterNZ{Index: int32(idx), Value: val})
		}
		// A duplicate index (delta 0 past the first pair) or an explicit
		// zero never comes from Encode but was historically accepted;
		// keep accepting it, but drop the cache rather than let it
		// disagree with the dense vector.
		if val == 0 || (i > 0 && delta == 0) {
			cacheOK = false
		}
	}
	if !cacheOK {
		r.nz = nil
		r.lenient = true
	}
	tn := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if tn > 1<<20 {
		return nil, ErrBadReport
	}
	for i := uint64(0); i < tn; i++ {
		id := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		r.Trace = append(r.Trace, int(id))
	}
	return r, nil
}

// refEncodeBatch is the former EncodeBatch: it serializes many reports into one length-prefixed payload.
func refEncodeBatch(reports []*Report) []byte {
	e := &refEncoder{buf: append([]byte(nil), batchMagic...)}
	e.uvarint(uint64(len(reports)))
	for _, r := range reports {
		e.bytes(refEncode(r))
	}
	return e.buf
}

// refDecodeBatch is the former DecodeBatch: it parses a payload produced by EncodeBatch.
func refDecodeBatch(data []byte) ([]*Report, error) {
	if len(data) < len(batchMagic) || string(data[:len(batchMagic)]) != string(batchMagic) {
		return nil, ErrBadBatch
	}
	off := len(batchMagic)
	n, w := binary.Uvarint(data[off:])
	if w <= 0 || n > MaxBatchReports {
		return nil, ErrBadBatch
	}
	off += w
	out := make([]*Report, 0, n)
	for i := uint64(0); i < n; i++ {
		size, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return nil, ErrBadBatch
		}
		off += w
		if size > uint64(len(data)-off) {
			return nil, ErrBadBatch
		}
		rep, err := refDecode(data[off : off+int(size)])
		if err != nil {
			return nil, err
		}
		off += int(size)
		out = append(out, rep)
	}
	if off != len(data) {
		return nil, ErrBadBatch
	}
	return out, nil
}
