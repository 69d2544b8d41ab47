package report

import "fmt"

// BatchStats pre-merges a batch of same-shape reports into per-counter
// sufficient-statistic deltas: the value sum, and the number of
// successful / failing runs in which the counter was nonzero. Every
// downstream statistic in Aggregate (and score.Accum, when it carries
// no site spans) is a sum of exactly these per-run facts, and integer
// sums commute — so applying the merged deltas with FoldBatch is
// bit-identical to folding each observed report individually, while
// traversing each report's nonzeros once (instead of once per consumer
// structure) and touching the big per-counter arrays once per distinct
// index per batch (instead of once per report).
//
// This is the fold-side payoff of staged ingest: a handler folding its
// own request sees one report at a time, but a background folder drains
// whole batches and can amortize them here.
//
// Not safe for concurrent use; each folder owns one BatchStats and
// reuses it across batches (Reset is O(touched), not O(counter space)).
type BatchStats struct {
	NumCounters int
	Runs        int
	Crashes     int
	// Touched lists the counter indices with at least one nonzero in
	// the batch, in first-touch order. Sums, SuccRuns, and FailRuns are
	// dense per-counter arrays whose entries are meaningful only at the
	// touched indices.
	Touched  []int32
	Sums     []uint64
	SuccRuns []uint32
	FailRuns []uint32

	// Generation marks make Reset O(1) on the dense arrays: a slot is
	// live only if mark[i] == gen, and stale slots are lazily zeroed on
	// first touch.
	mark []uint32
	gen  uint32
}

// Reset prepares the scratch for a new batch over a counter space of
// the given size. Reusing one BatchStats across batches keeps the dense
// arrays allocated and cache-warm.
func (b *BatchStats) Reset(numCounters int) {
	if len(b.mark) != numCounters {
		b.NumCounters = numCounters
		b.Sums = make([]uint64, numCounters)
		b.SuccRuns = make([]uint32, numCounters)
		b.FailRuns = make([]uint32, numCounters)
		b.mark = make([]uint32, numCounters)
		b.gen = 0
	}
	b.Runs, b.Crashes = 0, 0
	b.Touched = b.Touched[:0]
	b.gen++
	if b.gen == 0 { // generation counter wrapped: hard-clear the marks
		for i := range b.mark {
			b.mark[i] = 0
		}
		b.gen = 1
	}
}

// Observe merges one report into the batch. The report's shape must
// match the Reset size.
func (b *BatchStats) Observe(r *Report) error {
	if r.NumCounters() != b.NumCounters {
		return fmt.Errorf("report: counter vector length %d, want %d", r.NumCounters(), b.NumCounters)
	}
	b.Runs++
	cnt := b.SuccRuns
	if r.Crashed {
		b.Crashes++
		cnt = b.FailRuns
	}
	if r.nz != nil {
		for _, e := range r.nz {
			b.observe(cnt, int(e.Index), e.Value)
		}
		return nil
	}
	r.ForEachNonzero(func(i int, c uint64) { b.observe(cnt, i, c) })
	return nil
}

// observe merges one nonzero counter of a run whose outcome tally is cnt.
func (b *BatchStats) observe(cnt []uint32, i int, c uint64) {
	if b.mark[i] != b.gen {
		b.mark[i] = b.gen
		b.Sums[i], b.SuccRuns[i], b.FailRuns[i] = 0, 0, 0
		b.Touched = append(b.Touched, int32(i))
	}
	b.Sums[i] += c
	cnt[i]++
}

// FoldBatch applies pre-merged batch statistics to the aggregate. The
// result is bit-identical to calling Fold on each report the batch
// observed, in any order: totals are sums, run/crash tallies are sums,
// and "ever nonzero in outcome" is true exactly when the batch saw the
// counter nonzero in at least one run of that outcome. An aggregate
// created with zero counters adopts the batch's shape, mirroring Fold.
func (a *Aggregate) FoldBatch(b *BatchStats) error {
	if a.NumCounters == 0 && a.Runs == 0 && b.NumCounters > 0 {
		a.NumCounters = b.NumCounters
		a.NonzeroInSuccess = make([]bool, a.NumCounters)
		a.NonzeroInFailure = make([]bool, a.NumCounters)
		a.Totals = make([]uint64, a.NumCounters)
	}
	if b.NumCounters != a.NumCounters {
		return fmt.Errorf("report: batch counter space %d, want %d", b.NumCounters, a.NumCounters)
	}
	a.Runs += b.Runs
	a.Crashes += b.Crashes
	for _, i := range b.Touched {
		a.Totals[i] += b.Sums[i]
		if b.SuccRuns[i] > 0 {
			a.NonzeroInSuccess[i] = true
		}
		if b.FailRuns[i] > 0 {
			a.NonzeroInFailure[i] = true
		}
	}
	return nil
}
