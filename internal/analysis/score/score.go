// Package score implements the predicate scoring model that the CBI
// project developed as the successor to this paper's analyses (Liblit et
// al., "Scalable Statistical Bug Isolation", PLDI 2005). It is included
// as the natural extension of §3: where §3.2's elimination needs
// deterministic bugs and §3.3's regression trains a global classifier,
// these scores rank each predicate locally:
//
//	Failure(P) = F(P) / (F(P) + S(P))
//	Context(P) = F(P observed) / (F(P observed) + S(P observed))
//	Increase(P) = Failure(P) - Context(P)
//	Importance(P) = harmonic mean of Increase(P) and
//	                log(F(P)) / log(totalFailures)
//
// where F/S count failing/successful runs in which P was sampled true,
// and "observed" counts runs in which P's site was sampled at all —
// which is exactly what this paper's counter triples make computable
// under sparse sampling.
package score

import (
	"math"
	"sort"

	"cbi/internal/report"
)

// SiteSpan mirrors elim.SiteSpan: the counter range of one site.
type SiteSpan struct {
	Base int
	Len  int
}

// Predicate is one scored predicate.
type Predicate struct {
	Counter    int
	TrueFail   int // F(P): failing runs observing P true
	TrueOK     int // S(P): successful runs observing P true
	ObsFail    int // failing runs where P's site was sampled at all
	ObsOK      int // successful runs where P's site was sampled at all
	Failure    float64
	Context    float64
	Increase   float64
	Importance float64
}

// Score computes the per-predicate statistics over a report database.
// spans gives each site's counter range; observation of any counter in a
// span counts as observing every predicate of that site.
func Score(db *report.DB, spans []SiteSpan) []Predicate {
	n := db.NumCounters
	preds := make([]Predicate, n)
	for i := range preds {
		preds[i].Counter = i
	}
	totalFailures := 0

	// Map counter -> its span, for observation accounting.
	spanOf := make([]int, n)
	for i := range spanOf {
		spanOf[i] = -1
	}
	for si, sp := range spans {
		for c := sp.Base; c < sp.Base+sp.Len && c < n; c++ {
			spanOf[c] = si
		}
	}

	siteObserved := make([]bool, len(spans))
	for _, r := range db.Reports {
		fail := r.Crashed
		if fail {
			totalFailures++
		}
		for i := range siteObserved {
			siteObserved[i] = false
		}
		for _, e := range r.Nonzeros() {
			c := int(e.Index)
			if fail {
				preds[c].TrueFail++
			} else {
				preds[c].TrueOK++
			}
			if si := spanOf[c]; si >= 0 {
				siteObserved[si] = true
			}
		}
		for si, obs := range siteObserved {
			if !obs {
				continue
			}
			sp := spans[si]
			for c := sp.Base; c < sp.Base+sp.Len && c < n; c++ {
				if fail {
					preds[c].ObsFail++
				} else {
					preds[c].ObsOK++
				}
			}
		}
	}

	finishScores(preds, totalFailures)
	return preds
}

// finishScores fills the float-valued scores of each predicate from its
// integer counts. It is the single scoring code path shared by the
// offline Score and the incremental Accum, which is what makes live
// collector rankings bit-identical to an offline pass over the same
// reports.
func finishScores(preds []Predicate, totalFailures int) {
	logNumF := math.Log(float64(totalFailures))
	for i := range preds {
		p := &preds[i]
		if t := p.TrueFail + p.TrueOK; t > 0 {
			p.Failure = float64(p.TrueFail) / float64(t)
		}
		if o := p.ObsFail + p.ObsOK; o > 0 {
			p.Context = float64(p.ObsFail) / float64(o)
		}
		p.Increase = p.Failure - p.Context
		if p.Increase > 0 && p.TrueFail > 0 && totalFailures > 1 {
			rel := math.Log(float64(p.TrueFail)) / logNumF
			if rel > 0 {
				p.Importance = 2 / (1/p.Increase + 1/rel)
			}
		}
	}
}

// Rank returns the predicates with positive Importance, highest first.
func Rank(preds []Predicate) []Predicate {
	var out []Predicate
	for _, p := range preds {
		if p.Importance > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Importance != out[j].Importance {
			return out[i].Importance > out[j].Importance
		}
		return out[i].Counter < out[j].Counter
	})
	return out
}

// Top returns the k highest-Importance predicates.
func Top(preds []Predicate, k int) []Predicate {
	ranked := Rank(preds)
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}
