package main

import (
	"time"

	"cbi/internal/telemetry/trace"
)

// detachedSpans names spans that run on another goroutine than their
// parent and may outlive it: the staged folder's server.fold is parented
// to the handler's server.ingest but starts after the enqueue. They are
// not on the parent's blocking path, so they do not reduce its self time.
var detachedSpans = map[string]bool{"server.fold": true}

// spanStats is the per-name roll-up of a trace: how many spans, their
// total duration, and their total self time (duration minus the part of
// the interval that attached child spans cover).
type spanStats struct {
	count map[string]int
	total map[string]time.Duration
	self  map[string]time.Duration
}

func analyzeSpans(recs []trace.Record) spanStats {
	st := spanStats{
		count: map[string]int{},
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
	}
	byID := make(map[string]int, len(recs))
	for i, r := range recs {
		byID[r.SpanID] = i
	}
	covered := make([]time.Duration, len(recs))
	for _, r := range recs {
		if r.ParentID == "" || detachedSpans[r.Name] {
			continue
		}
		pi, ok := byID[r.ParentID]
		if !ok {
			continue
		}
		// Children on one blocking path run one after another, so summing
		// their clipped intervals is the covered part of the parent.
		p := recs[pi]
		start, end := r.Start, r.Start.Add(r.Duration)
		if start.Before(p.Start) {
			start = p.Start
		}
		if pe := p.Start.Add(p.Duration); end.After(pe) {
			end = pe
		}
		if end.After(start) {
			covered[pi] += end.Sub(start)
		}
	}
	for i, r := range recs {
		st.count[r.Name]++
		st.total[r.Name] += r.Duration
		if self := r.Duration - covered[i]; self > 0 {
			st.self[r.Name] += self
		}
	}
	return st
}

// meanUS is a name's mean duration per span in microseconds.
func (st spanStats) meanUS(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return us(st.total[name]) / float64(st.count[name])
}

// selfPerUS is a name's total self time spread over n operations, in
// microseconds — a ledger row.
func (st spanStats) selfPerUS(name string, n int) float64 {
	return us(st.self[name]) / float64(n)
}
