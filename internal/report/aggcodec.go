package report

// Aggregate wire codec: the section payload carried inside the "CBA1"
// merge envelope a federated edge collector pushes upstream (package
// collect), and inside the edge's spilled state snapshot. The encoding
// is sparse — only counters with a nonzero total or a set
// observed-in-success/failure bit get an entry — so a delta that covers
// a quiet interval costs bytes proportional to what actually changed,
// not to the counter space.
//
//	uvarint NumCounters
//	uvarint Runs
//	uvarint Crashes
//	uvarint #entries
//	repeated: uvarint indexDelta, byte bits (1 = success, 2 = failure),
//	          uvarint total
//
// The same codec serializes a full aggregate and a delta: a delta is
// just an Aggregate holding the difference of two cumulative states
// (Diff), and merging it into the upstream cumulative state (Merge) is
// legal because every field is an order-free sum or monotone bit
// (DESIGN §8, extended to trees in §14).

import (
	"errors"
	"fmt"

	"cbi/internal/wire"
)

// ErrBadAggregate is returned when an encoded aggregate is malformed.
var ErrBadAggregate = errors.New("report: malformed aggregate encoding")

// EncodeStats serializes the aggregate's sufficient statistics (the
// program name travels in the enclosing envelope, not here).
func (a *Aggregate) EncodeStats() []byte {
	var e wire.Enc
	e.Uvarint(uint64(a.NumCounters))
	e.Uvarint(uint64(a.Runs))
	e.Uvarint(uint64(a.Crashes))
	entries := 0
	for i := 0; i < a.NumCounters; i++ {
		if a.Totals[i] != 0 || a.NonzeroInSuccess[i] || a.NonzeroInFailure[i] {
			entries++
		}
	}
	e.Uvarint(uint64(entries))
	prev := 0
	for i := 0; i < a.NumCounters; i++ {
		if a.Totals[i] == 0 && !a.NonzeroInSuccess[i] && !a.NonzeroInFailure[i] {
			continue
		}
		e.Uvarint(uint64(i - prev))
		prev = i
		var bits byte
		if a.NonzeroInSuccess[i] {
			bits |= 1
		}
		if a.NonzeroInFailure[i] {
			bits |= 2
		}
		e.Byte(bits)
		e.Uvarint(a.Totals[i])
	}
	return e.Buf
}

// DecodeAggregateStats parses a payload produced by EncodeStats.
func DecodeAggregateStats(data []byte) (*Aggregate, error) {
	d := wire.NewDec(data, 0)
	n := d.Uvarint()
	runs := d.Uvarint()
	crashes := d.Uvarint()
	entries := d.Uvarint()
	if d.Bad() {
		return nil, ErrBadAggregate
	}
	if n > 1<<28 || entries > n || crashes > runs {
		return nil, ErrBadAggregate
	}
	a := NewAggregate("", int(n))
	a.Runs = int(runs)
	a.Crashes = int(crashes)
	idx := 0
	for i := uint64(0); i < entries; i++ {
		delta := d.Uvarint()
		bits := d.Byte()
		total := d.Uvarint()
		if d.Bad() {
			return nil, ErrBadAggregate
		}
		idx += int(delta)
		if idx < 0 || idx >= a.NumCounters || bits > 3 {
			return nil, ErrBadAggregate
		}
		a.NonzeroInSuccess[idx] = bits&1 != 0
		a.NonzeroInFailure[idx] = bits&2 != 0
		a.Totals[idx] = total
	}
	if !d.Done() {
		return nil, ErrBadAggregate
	}
	return a, nil
}

// Clone deep-copies the aggregate. Federated edges keep a clone of the
// cumulative state at each epoch cut as the baseline the next delta is
// diffed against.
func (a *Aggregate) Clone() *Aggregate {
	c := &Aggregate{
		Program:          a.Program,
		NumCounters:      a.NumCounters,
		Runs:             a.Runs,
		Crashes:          a.Crashes,
		NonzeroInSuccess: append([]bool(nil), a.NonzeroInSuccess...),
		NonzeroInFailure: append([]bool(nil), a.NonzeroInFailure...),
		Totals:           append([]uint64(nil), a.Totals...),
	}
	return c
}

// Diff returns the delta from base to a: integer statistics subtract,
// and the observed bits carry only the positions newly set since base
// (now AND NOT before — legal because the bits are monotone under
// Fold). Merging the result into a cumulative state equal to base
// reproduces a exactly, which is what makes epoch-cursor delta pushes
// bit-identical to shipping the full aggregate every time. base may be
// nil or empty, in which case the delta is a itself.
func (a *Aggregate) Diff(base *Aggregate) (*Aggregate, error) {
	if base == nil || (base.Runs == 0 && base.NumCounters == 0) {
		return a.Clone(), nil
	}
	if base.NumCounters != a.NumCounters {
		return nil, fmt.Errorf("report: diff shape %d, want %d", base.NumCounters, a.NumCounters)
	}
	if base.Runs > a.Runs || base.Crashes > a.Crashes {
		return nil, fmt.Errorf("report: diff base ahead of current state (%d runs > %d)", base.Runs, a.Runs)
	}
	d := NewAggregate(a.Program, a.NumCounters)
	d.Runs = a.Runs - base.Runs
	d.Crashes = a.Crashes - base.Crashes
	for i := 0; i < a.NumCounters; i++ {
		if a.Totals[i] < base.Totals[i] {
			return nil, fmt.Errorf("report: diff counter %d went backwards", i)
		}
		d.Totals[i] = a.Totals[i] - base.Totals[i]
		d.NonzeroInSuccess[i] = a.NonzeroInSuccess[i] && !base.NonzeroInSuccess[i]
		d.NonzeroInFailure[i] = a.NonzeroInFailure[i] && !base.NonzeroInFailure[i]
	}
	return d, nil
}
