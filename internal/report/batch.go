package report

import (
	"errors"

	"cbi/internal/wire"
)

// This file implements the batched wire protocol: many reports framed
// into one payload, so a client can amortize an HTTP round-trip over a
// whole buffer of runs. The framing reuses the store.go convention —
// uvarint length prefix, then one Encode()d report per frame — behind a
// distinct magic so a collector can tell a batch from a single report.
//
//	magic "CBB1"
//	varint #reports
//	repeated: varint len, report bytes (Encode format)

const batchMagic = "CBB1"

// ErrBadBatch is returned by DecodeBatch for malformed input.
var ErrBadBatch = errors.New("report: malformed batch encoding")

// MaxBatchReports bounds how many frames DecodeBatch will accept.
const MaxBatchReports = 1 << 20

// minFrameBytes is the smallest frame a batch can hold: a one-byte
// length prefix and a report of empty strings and vectors (magic, seven
// one-byte varints and the crash flag). It bounds the frame count a
// header may claim by the bytes that follow it.
const minFrameBytes = 1 + len(magic) + 8

// EncodeBatch serializes many reports into one length-prefixed payload.
// A sizing pass gives every frame's exact length, so each frame is
// written in place behind its minimal length prefix into one buffer.
func EncodeBatch(reports []*Report) []byte {
	p := getPlan()
	defer planPool.Put(p)
	total := len(batchMagic) + wire.UvarintLen(uint64(len(reports)))
	for _, r := range reports {
		size := p.add(r)
		total += wire.UvarintLen(uint64(size)) + size
	}
	e := wire.Enc{Buf: append(make([]byte, 0, total), batchMagic...)}
	e.Uvarint(uint64(len(reports)))
	for i, r := range reports {
		e.Uvarint(uint64(p.frames[i].size))
		e.Buf = r.appendEncoded(e.Buf, p.pairsOf(i, r))
	}
	return e.Buf
}

// DecodeBatch parses a payload produced by EncodeBatch.
func DecodeBatch(data []byte) ([]*Report, error) { return DecodeBatchShaped(data, 0) }

// DecodeBatchShaped is DecodeBatch for a receiver that knows its counter
// space; see DecodeShaped. The reports of one payload share a few large
// allocations (see slab), so retaining one of them keeps up to about
// 550 KiB of its neighbours' memory reachable.
func DecodeBatchShaped(data []byte, numCounters int) ([]*Report, error) {
	frames, n, ok := batchHeader(data)
	if !ok || n > uint64(len(frames)/minFrameBytes) {
		return nil, ErrBadBatch
	}
	d := wire.NewDec(frames, 0)
	out := make([]*Report, n)
	var mem slab
	for i := range out {
		frame := d.Bytes()
		if d.Bad() {
			return nil, ErrBadBatch
		}
		out[i] = mem.report(len(out) - i)
		// Pairs make up most of a batch's bytes, two or more each: half
		// the bytes from here on bounds, closely, the pairs still to come.
		ahead := (len(frame) + d.Remaining()) / 2
		if err := mem.decode(out[i], frame, numCounters, ahead); err != nil {
			return nil, err
		}
	}
	if !d.Done() {
		return nil, ErrBadBatch
	}
	return out, nil
}

// batchHeader splits a batch payload into its claimed frame count and
// the frame region behind the header.
func batchHeader(data []byte) (frames []byte, n uint64, ok bool) {
	if !IsBatch(data) {
		return nil, 0, false
	}
	d := wire.NewDec(data, len(batchMagic))
	n = d.Uvarint()
	if d.Bad() || n > MaxBatchReports {
		return nil, 0, false
	}
	return data[d.Offset():], n, true
}

// IsBatch reports whether data carries the batch magic (as opposed to a
// single report's "CBR1"), letting an endpoint accept either framing.
func IsBatch(data []byte) bool {
	return len(data) >= len(batchMagic) && string(data[:len(batchMagic)]) == batchMagic
}

// BatchFrames returns the frame region of a batch payload — everything
// after the magic and count, which is byte-for-byte the WriteAll/ReadAll
// framing used by report logs. A collector spilling an already-validated
// batch body to its append-only log can splice this region in directly
// instead of re-encoding every report. ok is false when data is not a
// well-formed batch header.
func BatchFrames(data []byte) (frames []byte, ok bool) {
	frames, _, ok = batchHeader(data)
	return frames, ok
}
