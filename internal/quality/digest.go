package quality

// Digest is the mergeable slice of the quality engine's state: the
// exact event totals (endpoint posts, accepts, per-reason rejections,
// quarantines) plus the exact byte/nonzero sums behind the snapshot's
// count/mean columns. A federated edge ships the delta of two digests
// upstream inside each "CBA1" merge envelope, and the root absorbs it,
// so population health at the root covers the whole tree.
//
// Only the exact counters travel. The density check's histogram and
// the collector's report-shape histograms stay per-collector, so the
// root's sampling verdict and p50/p99 columns describe only its local
// traffic (DESIGN §14).

import (
	"errors"

	"cbi/internal/wire"
)

// NumReasons is the number of rejection reasons a Digest carries.
const NumReasons = int(numReasons)

// ErrBadDigest is returned when an encoded digest is malformed.
var ErrBadDigest = errors.New("quality: malformed digest encoding")

// Digest is a snapshot (or delta) of the engine's exact counters.
type Digest struct {
	ReportPosts  uint64
	ReportsPosts uint64
	Accepted     uint64
	Rejected     [NumReasons]uint64
	BytesCount   uint64
	BytesSum     uint64
	NzSum        uint64
}

// IsZero reports whether the digest carries no events at all.
func (d Digest) IsZero() bool {
	if d.ReportPosts != 0 || d.ReportsPosts != 0 || d.Accepted != 0 ||
		d.BytesCount != 0 || d.BytesSum != 0 || d.NzSum != 0 {
		return false
	}
	for _, v := range d.Rejected {
		if v != 0 {
			return false
		}
	}
	return true
}

// Sub returns the delta from base to d (field-wise subtraction; every
// counter is monotone, so the caller's cumulative snapshots only grow).
func (d Digest) Sub(base Digest) Digest {
	out := Digest{
		ReportPosts:  d.ReportPosts - base.ReportPosts,
		ReportsPosts: d.ReportsPosts - base.ReportsPosts,
		Accepted:     d.Accepted - base.Accepted,
		BytesCount:   d.BytesCount - base.BytesCount,
		BytesSum:     d.BytesSum - base.BytesSum,
		NzSum:        d.NzSum - base.NzSum,
	}
	for i := range d.Rejected {
		out.Rejected[i] = d.Rejected[i] - base.Rejected[i]
	}
	return out
}

// Encode serializes the digest. A reason-count prefix keeps the format
// evolvable: a receiver with fewer known reasons rejects rather than
// misattributing counts.
func (d Digest) Encode() []byte {
	var e wire.Enc
	e.Uvarint(uint64(NumReasons))
	e.Uvarint(d.ReportPosts)
	e.Uvarint(d.ReportsPosts)
	e.Uvarint(d.Accepted)
	for _, v := range d.Rejected {
		e.Uvarint(v)
	}
	e.Uvarint(d.BytesCount)
	e.Uvarint(d.BytesSum)
	e.Uvarint(d.NzSum)
	return e.Buf
}

// DecodeDigest parses a payload produced by Encode.
func DecodeDigest(data []byte) (Digest, error) {
	var d Digest
	r := wire.NewDec(data, 0)
	if nr := r.Uvarint(); r.Bad() || nr != uint64(NumReasons) {
		return d, ErrBadDigest
	}
	d.ReportPosts = r.Uvarint()
	d.ReportsPosts = r.Uvarint()
	d.Accepted = r.Uvarint()
	for i := range d.Rejected {
		d.Rejected[i] = r.Uvarint()
	}
	d.BytesCount = r.Uvarint()
	d.BytesSum = r.Uvarint()
	d.NzSum = r.Uvarint()
	if !r.Done() {
		return d, ErrBadDigest
	}
	return d, nil
}

// TotalsDigest captures the engine's exact cumulative counters. Safe on
// a nil engine (zero digest). The result is a consistent-enough
// snapshot for delta computation: each counter is read once and only
// grows, so successive digests are field-wise monotone.
func (e *Engine) TotalsDigest() Digest {
	var d Digest
	if e == nil {
		return d
	}
	d.ReportPosts = e.totals[trkReportPosts].Load()
	d.ReportsPosts = e.totals[trkReportsPosts].Load()
	d.Accepted = e.totals[trkAccept].Load()
	for r := 0; r < NumReasons; r++ {
		d.Rejected[r] = e.totals[trkReject0+r].Load()
	}
	d.BytesCount = e.bytesCount.Load()
	d.BytesSum = e.bytesSum.Load()
	d.NzSum = e.nzSum.Load()
	return d
}

// Absorb folds a delta digest from a downstream collector into this
// engine: totals (what /quality reports) and the current tick windows
// (what the EWMA rate trackers and anomaly rules see), so a rejection
// surge on an edge trips the root's reject-surge rule just as local
// traffic would. Safe on a nil engine.
func (e *Engine) Absorb(d Digest) { e.absorb(d, true) }

// AbsorbTotals restores cumulative counters without touching the tick
// windows — the restart path: an edge replaying its spilled state must
// not present hours of history to the rate trackers as one instant of
// traffic. Safe on a nil engine.
func (e *Engine) AbsorbTotals(d Digest) { e.absorb(d, false) }

func (e *Engine) absorb(d Digest, windows bool) {
	if e == nil || d.IsZero() {
		return
	}
	add := func(i int, v uint64) {
		if windows {
			e.windows[i].Add(v)
		}
		e.totals[i].Add(v)
	}
	add(trkReportPosts, d.ReportPosts)
	add(trkReportsPosts, d.ReportsPosts)
	add(trkAccept, d.Accepted)
	for r := 0; r < NumReasons; r++ {
		add(trkReject0+r, d.Rejected[r])
	}
	e.bytesCount.Add(d.BytesCount)
	e.bytesSum.Add(d.BytesSum)
	e.nzSum.Add(d.NzSum)
}
