package score

import (
	"fmt"

	"cbi/internal/report"
)

// Accum holds the order-free sufficient statistics behind Score, so the
// per-predicate rankings can be maintained incrementally as reports
// arrive instead of requiring a retained report database. Every field is
// a sum over runs (run/failure totals, per-counter observed-true run
// counts, per-site observed-at-all run counts), so folding reports into
// independent accumulators and merging them yields exactly the same
// state as folding every report serially — the same merge-legality
// argument as report.Aggregate (DESIGN §8), extended to the 2005
// follow-up scores.
//
// Predicates() then computes the identical arithmetic as Score over
// those counts (the two share one code path), so for any report set D:
//
//	acc.Predicates() == Score(D, spans)   bit for bit,
//
// whenever acc was built by folding exactly the reports of D with the
// same spans.
type Accum struct {
	NumCounters int
	Spans       []SiteSpan
	Runs        int
	Failures    int
	// TrueFail[c] / TrueOK[c] count failing / successful runs in which
	// counter c was observed true (nonzero).
	TrueFail []int
	TrueOK   []int
	// SiteObsFail[s] / SiteObsOK[s] count failing / successful runs in
	// which any counter of site s was nonzero — the "site was sampled at
	// all" denominator of Context(P).
	SiteObsFail []int
	SiteObsOK   []int

	// spanOf maps counter -> owning site (last span wins, exactly as in
	// Score), and mark/gen is generation-marked scratch so Fold touches
	// only the sites a report actually observed.
	spanOf []int
	mark   []int
	gen    int
}

// NewAccum creates an empty accumulator for a counter space and site
// layout. numCounters may be 0 ("accept any"): the shape is then adopted
// from the first folded report, mirroring report.Aggregate. spans may be
// nil, in which case no predicate has site context and Context(P) stays
// 0 — the same degradation as Score with nil spans.
func NewAccum(numCounters int, spans []SiteSpan) *Accum {
	a := &Accum{NumCounters: numCounters, Spans: spans}
	if numCounters > 0 {
		a.alloc()
	}
	return a
}

func (a *Accum) alloc() {
	n := a.NumCounters
	a.TrueFail = make([]int, n)
	a.TrueOK = make([]int, n)
	a.SiteObsFail = make([]int, len(a.Spans))
	a.SiteObsOK = make([]int, len(a.Spans))
	a.spanOf = make([]int, n)
	for i := range a.spanOf {
		a.spanOf[i] = -1
	}
	for si, sp := range a.Spans {
		for c := sp.Base; c < sp.Base+sp.Len && c < n; c++ {
			a.spanOf[c] = si
		}
	}
	a.mark = make([]int, len(a.Spans))
}

// Fold absorbs one report. Cost is O(nonzero counters), not O(counter
// space). Not safe for concurrent use; callers stripe accumulators and
// Merge them (collect.Server holds one per ingest shard).
func (a *Accum) Fold(r *report.Report) error {
	if a.NumCounters == 0 && a.Runs == 0 && r.NumCounters() > 0 {
		a.NumCounters = r.NumCounters()
		a.alloc()
	}
	if r.NumCounters() != a.NumCounters {
		return fmt.Errorf("score: counter vector length %d, want %d", r.NumCounters(), a.NumCounters)
	}
	a.Runs++
	obsTrue, obsSite := a.TrueOK, a.SiteObsOK
	if r.Crashed {
		a.Failures++
		obsTrue, obsSite = a.TrueFail, a.SiteObsFail
	}
	a.gen++
	if nz := r.CachedNonzeros(); nz != nil {
		for _, e := range nz {
			a.observe(obsTrue, obsSite, int(e.Index))
		}
		return nil
	}
	r.ForEachNonzero(func(i int, _ uint64) { a.observe(obsTrue, obsSite, i) })
	return nil
}

// observe counts counter i as seen true in the run being folded, and its
// site as observed if this is the run's first counter there.
func (a *Accum) observe(obsTrue, obsSite []int, i int) {
	obsTrue[i]++
	if si := a.spanOf[i]; si >= 0 && a.mark[si] != a.gen {
		a.mark[si] = a.gen
		obsSite[si]++
	}
}

// FoldBatch absorbs pre-merged batch statistics (report.BatchStats).
// Only legal when the accumulator carries no site spans: Context(P)
// counts runs in which a *site* was observed at all, a per-report fact
// that a per-counter merge cannot reconstruct. Without spans, every
// Accum statistic is a per-counter sum over runs, sums commute, and the
// result is bit-identical to folding each observed report individually.
// An empty accumulator adopts the batch's shape, mirroring Fold.
func (a *Accum) FoldBatch(b *report.BatchStats) error {
	if len(a.Spans) != 0 {
		return fmt.Errorf("score: batch fold requires an accumulator without site spans")
	}
	if a.NumCounters == 0 && a.Runs == 0 && b.NumCounters > 0 {
		a.NumCounters = b.NumCounters
		a.alloc()
	}
	if b.NumCounters != a.NumCounters {
		return fmt.Errorf("score: batch counter space %d, want %d", b.NumCounters, a.NumCounters)
	}
	a.Runs += b.Runs
	a.Failures += b.Crashes
	for _, i := range b.Touched {
		a.TrueOK[i] += int(b.SuccRuns[i])
		a.TrueFail[i] += int(b.FailRuns[i])
	}
	return nil
}

// Merge absorbs another accumulator. Both must describe the same counter
// space and site layout (an empty a adopts o's). Merge is the order-free
// shard combiner: fold-into-shards-then-merge equals a serial fold.
func (a *Accum) Merge(o *Accum) error {
	if o.Runs == 0 && o.NumCounters == 0 {
		return nil
	}
	if a.NumCounters == 0 && a.Runs == 0 && o.NumCounters > 0 {
		a.NumCounters = o.NumCounters
		if len(a.Spans) == 0 {
			a.Spans = o.Spans
		}
		a.alloc()
	}
	if o.NumCounters != a.NumCounters {
		return fmt.Errorf("score: accumulator shape %d, want %d", o.NumCounters, a.NumCounters)
	}
	if len(o.Spans) != len(a.Spans) {
		return fmt.Errorf("score: accumulator has %d site spans, want %d", len(o.Spans), len(a.Spans))
	}
	a.Runs += o.Runs
	a.Failures += o.Failures
	for i := range o.TrueFail {
		a.TrueFail[i] += o.TrueFail[i]
		a.TrueOK[i] += o.TrueOK[i]
	}
	for i := range o.SiteObsFail {
		a.SiteObsFail[i] += o.SiteObsFail[i]
		a.SiteObsOK[i] += o.SiteObsOK[i]
	}
	return nil
}

// Predicates computes the scored predicates from the accumulated counts.
// The result is bit-identical to Score over the same reports and spans:
// the observation expansion mirrors Score's site loop and the float
// arithmetic is the shared finishScores.
func (a *Accum) Predicates() []Predicate {
	n := a.NumCounters
	preds := make([]Predicate, n)
	for i := range preds {
		preds[i].Counter = i
		preds[i].TrueFail = a.TrueFail[i]
		preds[i].TrueOK = a.TrueOK[i]
	}
	for si, sp := range a.Spans {
		of, oo := a.SiteObsFail[si], a.SiteObsOK[si]
		for c := sp.Base; c < sp.Base+sp.Len && c < n; c++ {
			preds[c].ObsFail += of
			preds[c].ObsOK += oo
		}
	}
	finishScores(preds, a.Failures)
	return preds
}
