package quality

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cbi/internal/instrument"
	"cbi/internal/workloads"
)

// rankError scores estimate est for target quantile p against the sorted
// data: the distance from p to the empirical CDF interval of est (an
// interval, because the CDF jumps at ties).
func rankError(sorted []float64, est, p float64) float64 {
	n := float64(len(sorted))
	lo := float64(sort.SearchFloat64s(sorted, est)) / n
	hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > est })) / n
	switch {
	case p < lo:
		return lo - p
	case p > hi:
		return p - hi
	}
	return 0
}

// exactQuantile returns the empirical p-quantile of sorted data.
func exactQuantile(sorted []float64, p float64) float64 {
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TestP2AccuracyProperty checks every tracked quantile against exact
// order statistics across qualitatively different stream shapes. The
// documented bound (DESIGN §12) is rank error <= 0.05 for large
// streams; n=100 gets slack because five markers can't do better. P²
// interpolates between markers, so on discrete or bimodal data the
// estimate can land a hair off a tie plateau — a large rank error but a
// negligible value error. Either metric within bound passes. The last
// two streams are what the engine actually sketches — wire bytes and
// non-zero counters per report of a sampled ccrypt fleet — tied and
// discrete in ways the generators above are not.
func TestP2AccuracyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	streams := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() * 1000 },
		"exponential": func() float64 { return rng.ExpFloat64() * 50 },
		"normal":      func() float64 { return 500 + 80*rng.NormFloat64() },
		"heavy-tail":  func() float64 { return 64 * (1 + rng.ExpFloat64()*rng.ExpFloat64()*30) },
		"discrete":    func() float64 { return float64(rng.Intn(12)) },
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return 10 + rng.Float64()
			}
			return 1000 + rng.Float64()*100
		},
	}
	check := func(name string, data []float64) {
		sk := NewQuantileSketch()
		for _, x := range data {
			sk.Observe(x)
		}
		n := len(data)
		sort.Float64s(data)
		bound := 0.05
		if n < 1000 {
			bound = 0.10
		}
		for _, p := range SketchQuantiles {
			est := sk.Quantile(p)
			rErr := rankError(data, est, p)
			exact := exactQuantile(data, p)
			// Normalize value error by the data range: bimodal gaps make
			// ratios to the exact quantile meaningless near the low mode.
			vErr := math.Abs(est-exact) / math.Max(data[n-1]-data[0], 1e-9)
			if rErr > bound && vErr > 0.05 {
				t.Errorf("%s n=%d p=%.2f: rank error %.4f > %.2f and value error %.4f > 0.05 (estimate %.2f, exact %.2f)",
					name, n, p, rErr, bound, vErr, est, exact)
			}
		}
	}
	for name, gen := range streams {
		for _, n := range []int{100, 5_000, 50_000} {
			data := make([]float64, n)
			for i := range data {
				data[i] = gen()
			}
			check(name, data)
		}
	}

	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workloads.CcryptFleet(built.Program, workloads.FleetConfig{Runs: 2000, Density: 1.0 / 100, SeedBase: 42})
	if err != nil {
		t.Fatal(err)
	}
	var wires, nonzeros []float64
	for _, rep := range db.Reports {
		wires = append(wires, float64(len(rep.Encode())))
		nonzeros = append(nonzeros, float64(len(rep.Nonzeros())))
	}
	check("ccrypt report bytes", wires)
	check("ccrypt report nonzeros", nonzeros)
}

func TestP2SmallStreams(t *testing.T) {
	// Below five observations the estimate is the exact order statistic.
	sk := NewQuantileSketch()
	if got := sk.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %v", got)
	}
	for _, x := range []float64{30, 10, 20} {
		sk.Observe(x)
	}
	if got := sk.Quantile(0.5); got != 20 {
		t.Errorf("median of {10,20,30} = %v, want 20", got)
	}
	if got := sk.Quantile(0.99); got != 30 {
		t.Errorf("p99 of {10,20,30} = %v, want 30", got)
	}
}

func TestQuantileSketchSummary(t *testing.T) {
	sk := NewQuantileSketch()
	for i := 1; i <= 100; i++ {
		sk.Observe(float64(i))
	}
	s := sk.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	if s.P25 >= s.P50 || s.P50 >= s.P75 || s.P75 >= s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: %+v", s)
	}
	if math.Abs(s.P50-50) > 5 {
		t.Errorf("p50 = %v, want ~50", s.P50)
	}
}

func TestQuantilePanicsOnUntracked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("untracked quantile did not panic")
		}
	}()
	NewQuantileSketch().Quantile(0.33)
}
