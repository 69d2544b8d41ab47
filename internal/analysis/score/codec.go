package score

// Accum wire codec: the scoring-statistics section of the "CBA1" merge
// envelope (package collect) and of an edge collector's spilled state.
// Like the report.Aggregate codec it is sparse — only counters (and
// sites) with a nonzero observation count get an entry — and it
// serializes full states and deltas alike, because a delta is just an
// Accum holding the difference of two cumulative states (Diff).
//
//	uvarint NumCounters
//	uvarint #spans (layout cardinality only; the receiver supplies the
//	        actual spans and rejects a cardinality mismatch — the
//	        "authenticated by shape" rule)
//	uvarint Runs
//	uvarint Failures
//	uvarint #counter entries
//	repeated: uvarint indexDelta, uvarint trueFail, uvarint trueOK
//	uvarint #site entries
//	repeated: uvarint indexDelta, uvarint obsFail, uvarint obsOK

import (
	"errors"
	"fmt"

	"cbi/internal/wire"
)

// ErrBadAccum is returned when an encoded accumulator is malformed.
var ErrBadAccum = errors.New("score: malformed accumulator encoding")

// EncodeStats serializes the accumulator's public statistics. The
// private fold scratch (span map, generation marks) is derived state
// and never crosses the wire.
func (a *Accum) EncodeStats() []byte {
	var e wire.Enc
	e.Uvarint(uint64(a.NumCounters))
	e.Uvarint(uint64(len(a.Spans)))
	e.Uvarint(uint64(a.Runs))
	e.Uvarint(uint64(a.Failures))
	entries := 0
	for i := range a.TrueFail {
		if a.TrueFail[i] != 0 || a.TrueOK[i] != 0 {
			entries++
		}
	}
	e.Uvarint(uint64(entries))
	prev := 0
	for i := range a.TrueFail {
		if a.TrueFail[i] == 0 && a.TrueOK[i] == 0 {
			continue
		}
		e.Uvarint(uint64(i - prev))
		prev = i
		e.Uvarint(uint64(a.TrueFail[i]))
		e.Uvarint(uint64(a.TrueOK[i]))
	}
	sites := 0
	for i := range a.SiteObsFail {
		if a.SiteObsFail[i] != 0 || a.SiteObsOK[i] != 0 {
			sites++
		}
	}
	e.Uvarint(uint64(sites))
	prev = 0
	for i := range a.SiteObsFail {
		if a.SiteObsFail[i] == 0 && a.SiteObsOK[i] == 0 {
			continue
		}
		e.Uvarint(uint64(i - prev))
		prev = i
		e.Uvarint(uint64(a.SiteObsFail[i]))
		e.Uvarint(uint64(a.SiteObsOK[i]))
	}
	return e.Buf
}

// DecodeAccumStats parses a payload produced by EncodeStats.
// numCounters and spans are the receiver's own counter space and site
// layout; decoding fails unless the sender's match them, so two
// collectors can only merge scoring state when they agree on the program
// structure, and a payload claiming another counter space is refused
// before the dense statistics are allocated for it. The result is
// suitable as a Merge source (its fold scratch is rebuilt lazily if it
// is ever used as a Merge target that adopts shape).
func DecodeAccumStats(data []byte, numCounters int, spans []SiteSpan) (*Accum, error) {
	d := wire.NewDec(data, 0)
	n := d.Uvarint()
	nSpans := d.Uvarint()
	runs := d.Uvarint()
	failures := d.Uvarint()
	entries := d.Uvarint()
	if d.Bad() || n > 1<<28 || entries > n || failures > runs {
		return nil, ErrBadAccum
	}
	if n != uint64(numCounters) {
		return nil, fmt.Errorf("score: accumulator has %d counters, want %d", n, numCounters)
	}
	if int(nSpans) != len(spans) {
		return nil, fmt.Errorf("score: accumulator has %d site spans, want %d", nSpans, len(spans))
	}
	a := NewAccum(int(n), spans)
	if a.TrueFail == nil {
		// NumCounters 0 with spans: alloc never ran; force the slices so
		// the entry loops below have a target.
		a.alloc()
	}
	a.Runs = int(runs)
	a.Failures = int(failures)
	idx := 0
	for i := uint64(0); i < entries; i++ {
		delta := d.Uvarint()
		tf := d.Uvarint()
		tok := d.Uvarint()
		if d.Bad() {
			return nil, ErrBadAccum
		}
		idx += int(delta)
		if idx < 0 || idx >= int(n) {
			return nil, ErrBadAccum
		}
		a.TrueFail[idx] = int(tf)
		a.TrueOK[idx] = int(tok)
	}
	sites := d.Uvarint()
	if d.Bad() || sites > nSpans {
		return nil, ErrBadAccum
	}
	idx = 0
	for i := uint64(0); i < sites; i++ {
		delta := d.Uvarint()
		of := d.Uvarint()
		ook := d.Uvarint()
		if d.Bad() {
			return nil, ErrBadAccum
		}
		idx += int(delta)
		if idx < 0 || idx >= int(nSpans) {
			return nil, ErrBadAccum
		}
		a.SiteObsFail[idx] = int(of)
		a.SiteObsOK[idx] = int(ook)
	}
	if !d.Done() {
		return nil, ErrBadAccum
	}
	return a, nil
}

// CloneStats copies the accumulator's public statistics (the baseline a
// federated edge diffs the next epoch against). The clone shares the
// span slice — layouts are immutable once a server starts — and carries
// no fold scratch; it is a Diff/Merge operand, not a Fold target.
func (a *Accum) CloneStats() *Accum {
	return &Accum{
		NumCounters: a.NumCounters,
		Spans:       a.Spans,
		Runs:        a.Runs,
		Failures:    a.Failures,
		TrueFail:    append([]int(nil), a.TrueFail...),
		TrueOK:      append([]int(nil), a.TrueOK...),
		SiteObsFail: append([]int(nil), a.SiteObsFail...),
		SiteObsOK:   append([]int(nil), a.SiteObsOK...),
	}
}

// Diff returns the delta from base to a. Every Accum statistic is a
// per-run sum, so the delta of two cumulative states subtracts
// field-wise, and merging the result upstream reproduces a serial fold
// exactly (the tree-merge legality argument, DESIGN §14). base may be
// nil or empty, in which case the delta is a itself.
func (a *Accum) Diff(base *Accum) (*Accum, error) {
	if base == nil || (base.Runs == 0 && base.NumCounters == 0) {
		return a.CloneStats(), nil
	}
	if base.NumCounters != a.NumCounters {
		return nil, fmt.Errorf("score: diff shape %d, want %d", base.NumCounters, a.NumCounters)
	}
	if len(base.Spans) != len(a.Spans) {
		return nil, fmt.Errorf("score: diff has %d site spans, want %d", len(base.Spans), len(a.Spans))
	}
	if base.Runs > a.Runs || base.Failures > a.Failures {
		return nil, fmt.Errorf("score: diff base ahead of current state (%d runs > %d)", base.Runs, a.Runs)
	}
	d := &Accum{
		NumCounters: a.NumCounters,
		Spans:       a.Spans,
		Runs:        a.Runs - base.Runs,
		Failures:    a.Failures - base.Failures,
		TrueFail:    make([]int, len(a.TrueFail)),
		TrueOK:      make([]int, len(a.TrueOK)),
		SiteObsFail: make([]int, len(a.SiteObsFail)),
		SiteObsOK:   make([]int, len(a.SiteObsOK)),
	}
	for i := range a.TrueFail {
		if a.TrueFail[i] < base.TrueFail[i] || a.TrueOK[i] < base.TrueOK[i] {
			return nil, fmt.Errorf("score: diff counter %d went backwards", i)
		}
		d.TrueFail[i] = a.TrueFail[i] - base.TrueFail[i]
		d.TrueOK[i] = a.TrueOK[i] - base.TrueOK[i]
	}
	for i := range a.SiteObsFail {
		if a.SiteObsFail[i] < base.SiteObsFail[i] || a.SiteObsOK[i] < base.SiteObsOK[i] {
			return nil, fmt.Errorf("score: diff site %d went backwards", i)
		}
		d.SiteObsFail[i] = a.SiteObsFail[i] - base.SiteObsFail[i]
		d.SiteObsOK[i] = a.SiteObsOK[i] - base.SiteObsOK[i]
	}
	return d, nil
}
