// Package elim implements the predicate-elimination strategies of §3.2:
// given many runs of an instrumented program, it discards predicates whose
// observed behaviour is inconsistent with the hypothesis "this predicate
// being true causes (or raises the risk of) failure", leaving a small set
// of candidate bug predictors.
package elim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cbi/internal/report"
	"cbi/internal/rng"
	"cbi/internal/stats"
	"cbi/internal/telemetry"
)

// SiteSpan describes the counter range of one instrumentation site (e.g.
// the three sign counters of a returns site). Elimination by lack of
// failing coverage operates on spans: a site none of whose counters was
// ever nonzero in a failing run was not even reached by failures.
type SiteSpan struct {
	Base int
	Len  int
}

// UniversalFalsehood retains counters that were nonzero on at least one
// run; counters zero on all runs "likely represent predicates that can
// never be true" (§3.2.2).
func UniversalFalsehood(a *report.Aggregate) []bool {
	keep := make([]bool, a.NumCounters)
	for i := range keep {
		keep[i] = a.NonzeroInSuccess[i] || a.NonzeroInFailure[i]
	}
	return keep
}

// LackOfFailingCoverage retains counters whose site was reached in at
// least one failing run (§3.2.2).
func LackOfFailingCoverage(a *report.Aggregate, spans []SiteSpan) []bool {
	keep := make([]bool, a.NumCounters)
	for _, sp := range spans {
		reached := false
		for i := sp.Base; i < sp.Base+sp.Len && i < a.NumCounters; i++ {
			if a.NonzeroInFailure[i] {
				reached = true
				break
			}
		}
		if reached {
			for i := sp.Base; i < sp.Base+sp.Len && i < a.NumCounters; i++ {
				keep[i] = true
			}
		}
	}
	return keep
}

// LackOfFailingExample retains counters nonzero on at least one failed
// run; the rest "likely represent predicates that need not be true for a
// failure to occur" (§3.2.2).
func LackOfFailingExample(a *report.Aggregate) []bool {
	return append([]bool(nil), a.NonzeroInFailure...)
}

// SuccessfulCounterexample retains counters that are zero on every
// successful run; a counter observed true in a successful run "must
// represent a predicate that can be true without a subsequent program
// failure" (§3.2.2). This strategy assumes the bug is deterministic.
func SuccessfulCounterexample(a *report.Aggregate) []bool {
	keep := make([]bool, a.NumCounters)
	for i := range keep {
		keep[i] = !a.NonzeroInSuccess[i]
	}
	return keep
}

// Intersect combines strategies: a counter survives only if every
// strategy retains it. With no arguments it returns nil.
func Intersect(sets ...[]bool) []bool {
	if len(sets) == 0 {
		return nil
	}
	out := append([]bool(nil), sets[0]...)
	for _, s := range sets[1:] {
		for i := range out {
			out[i] = out[i] && i < len(s) && s[i]
		}
	}
	return out
}

// Count returns the number of retained counters.
func Count(set []bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}

// Indices returns the retained counter indices in order.
func Indices(set []bool) []int {
	var out []int
	for i, b := range set {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// ----------------------------------------------------------------------------
// Progressive refinement (Figure 2)

// Point is one x-position of Figure 2: the candidate-predicate count
// after elimination by successful counterexample over subsets of a given
// number of successful runs, summarized over many random subsets.
type Point struct {
	Runs   int
	Mean   float64
	StdDev float64
}

// Progressive reproduces Figure 2's experiment: starting from the
// candidate set initial (typically UniversalFalsehood over all runs), it
// draws `trials` random subsets of the successful runs at each size in
// sizes, applies elimination by successful counterexample using only that
// subset, and records the mean and standard deviation of the surviving
// predicate count.
//
// Sizes larger than the success set clamp to it; sizes that clamp to the
// same effective value produce ONE point (the duplicates would be
// identical distributions). Trials run on ProgressiveWorkers' default
// worker pool; results are independent of the worker count.
func Progressive(successes []*report.Report, initial []bool, sizes []int, trials int, seed int64) []Point {
	return ProgressiveWorkers(successes, initial, sizes, trials, seed, 0)
}

// ProgressiveWorkers is Progressive with an explicit concurrency bound
// (0 = NumCPU, 1 = serial). Each (size, trial) pair derives its own RNG
// from the seed, so every trial's subset — and therefore every point —
// is identical at any worker count.
func ProgressiveWorkers(successes []*report.Report, initial []bool, sizes []int, trials int, seed int64, workers int) []Point {
	defer telemetry.StartSpan("elim.progressive").End()
	n := len(successes)
	// One point per distinct effective size: requested sizes past the
	// success count clamp and would otherwise duplicate.
	var effSizes []int
	dup := make(map[int]bool)
	for _, size := range sizes {
		if size > n {
			size = n
		}
		if !dup[size] {
			dup[size] = true
			effSizes = append(effSizes, size)
		}
	}
	// Counting survivors only needs the candidate indices, and subset
	// coverage only needs each report's nonzeros. Pre-build the sparse
	// forms serially: Nonzeros caches on first call and is not safe for
	// concurrent construction.
	candidates := Indices(initial)
	for _, r := range successes {
		r.Nonzeros()
	}

	counts := make([][]float64, len(effSizes))
	for k := range counts {
		counts[k] = make([]float64, trials)
	}
	tasks := len(effSizes) * trials
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > tasks {
		workers = tasks
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	worker := func() {
		defer wg.Done()
		// Per-worker scratch, reused across trials: a generator re-seeded
		// per trial, an identity permutation buffer restored by reverting
		// its swaps, and a generation-marked "seen" set that clears in O(1).
		r := rng.New(0)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		swaps := make([]int, 0, n)
		seen := make([]int32, len(initial))
		gen := int32(0)
		for {
			task := int(next.Add(1)) - 1
			if task >= tasks {
				return
			}
			k, trial := task/trials, task%trials
			size := effSizes[k]
			r.Seed(trialSeed(seed, size, trial))
			// Partial Fisher–Yates: only the first `size` draws of a full
			// shuffle are needed to pick a uniform subset.
			swaps = swaps[:0]
			for i := 0; i < size; i++ {
				j := i + r.Intn(n-i)
				perm[i], perm[j] = perm[j], perm[i]
				swaps = append(swaps, j)
			}
			gen++
			for _, ri := range perm[:size] {
				successes[ri].ForEachNonzero(func(i int, c uint64) {
					seen[i] = gen
				})
			}
			surv := 0
			for _, i := range candidates {
				if seen[i] != gen {
					surv++
				}
			}
			counts[k][trial] = float64(surv)
			// Undo the swaps in reverse so perm is the identity again.
			for i := len(swaps) - 1; i >= 0; i-- {
				perm[i], perm[swaps[i]] = perm[swaps[i]], perm[i]
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()

	points := make([]Point, 0, len(effSizes))
	for k, size := range effSizes {
		points = append(points, Point{
			Runs:   size,
			Mean:   stats.Mean(counts[k]),
			StdDev: stats.StdDev(counts[k]),
		})
	}
	return points
}

// trialSeed derives an independent, well-mixed RNG seed for one
// (size, trial) pair via splitmix64-style finalization, so trials can be
// scheduled on any worker in any order.
func trialSeed(seed int64, size, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z ^= uint64(size)*0xff51afd7ed558ccd + uint64(trial)*0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// StrategyCounts reports, for each §3.2.3-style strategy applied
// independently, how many candidate predicates remain. spans is needed for
// lack of failing coverage.
type StrategyCounts struct {
	Total                    int
	UniversalFalsehood       int
	LackOfFailingCoverage    int
	LackOfFailingExample     int
	SuccessfulCounterexample int
	UFandSC                  int // the paper's headline combination
	LFEandSC                 int
	LFCandSC                 int
}

// Summarize applies every strategy to the aggregate.
func Summarize(a *report.Aggregate, spans []SiteSpan) StrategyCounts {
	defer telemetry.StartSpan("elim.summarize").End()
	uf := UniversalFalsehood(a)
	lfc := LackOfFailingCoverage(a, spans)
	lfe := LackOfFailingExample(a)
	sc := SuccessfulCounterexample(a)
	return StrategyCounts{
		Total:                    a.NumCounters,
		UniversalFalsehood:       Count(uf),
		LackOfFailingCoverage:    Count(lfc),
		LackOfFailingExample:     Count(lfe),
		SuccessfulCounterexample: Count(sc),
		UFandSC:                  Count(Intersect(uf, sc)),
		LFEandSC:                 Count(Intersect(lfe, sc)),
		LFCandSC:                 Count(Intersect(lfc, sc)),
	}
}
