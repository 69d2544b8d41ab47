package sampler

import (
	"math"
	"testing"
	"testing/quick"

	"cbi/internal/stats"
)

func TestGeometricMeanMatchesDensity(t *testing.T) {
	// §2.1: countdown values form a geometric distribution whose mean is
	// the inverse of the sampling density.
	for _, d := range []float64{1.0 / 10, 1.0 / 100, 1.0 / 1000} {
		g := NewGeometric(1, d)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(g.Next())
		}
		mean := sum / n
		want := 1 / d
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("density %g: mean %.1f, want ~%.1f", d, mean, want)
		}
	}
}

func TestGeometricEdgeDensities(t *testing.T) {
	if got := NewGeometric(1, 0).Next(); got != NeverSample {
		t.Errorf("density 0: %d", got)
	}
	g := NewGeometric(1, 1)
	for i := 0; i < 10; i++ {
		if got := g.Next(); got != 1 {
			t.Errorf("density 1: %d", got)
		}
	}
	if got := NewGeometric(1, -0.5).Next(); got != NeverSample {
		t.Errorf("negative density: %d", got)
	}
}

func TestGeometricAlwaysPositive(t *testing.T) {
	err := quick.Check(func(seed int64, di uint8) bool {
		d := 1.0 / float64(int(di)%1000+2)
		g := NewGeometric(seed, d)
		for i := 0; i < 100; i++ {
			if g.Next() < 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestGeometricMatchesPMF(t *testing.T) {
	// Empirical distribution of small countdowns must match the geometric
	// PMF: P(k) = (1-p)^(k-1) p.
	p := 1.0 / 5
	g := NewGeometric(7, p)
	const n = 300000
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	for k := int64(1); k <= 5; k++ {
		want := stats.GeometricPMF(p, k)
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(X=%d): got %.4f, want %.4f", k, got, want)
		}
	}
}

func TestGeometricMemorylessness(t *testing.T) {
	// P(X > a+b | X > a) should equal P(X > b): the hallmark of a fair
	// Bernoulli process, and exactly what the periodic sampler lacks.
	p := 1.0 / 8
	g := NewGeometric(11, p)
	const n = 400000
	var gtA, gtAB, gtB, total int
	a, b := int64(4), int64(6)
	for i := 0; i < n; i++ {
		k := g.Next()
		total++
		if k > a {
			gtA++
			if k > a+b {
				gtAB++
			}
		}
		if k > b {
			gtB++
		}
	}
	condProb := float64(gtAB) / float64(gtA)
	margProb := float64(gtB) / float64(total)
	if math.Abs(condProb-margProb) > 0.01 {
		t.Errorf("memorylessness violated: P(X>a+b|X>a)=%.4f, P(X>b)=%.4f", condProb, margProb)
	}
}

func TestBankCyclesDeterministically(t *testing.T) {
	g := NewGeometric(3, 0.25)
	b := NewBank(g, 16)
	if b.Len() != 16 {
		t.Fatalf("len: %d", b.Len())
	}
	first := make([]int64, 16)
	for i := range first {
		first[i] = b.Next()
	}
	for i := 0; i < 16; i++ {
		if got := b.Next(); got != first[i] {
			t.Errorf("cycle %d: got %d, want %d", i, got, first[i])
		}
	}
}

func TestBankRejectsNonPositiveSize(t *testing.T) {
	b := NewBank(NewGeometric(1, 0.5), 0)
	if b.Len() != 1 {
		t.Errorf("len: %d", b.Len())
	}
}

func TestPeriodic(t *testing.T) {
	p := &Periodic{Period: 50}
	for i := 0; i < 5; i++ {
		if got := p.Next(); got != 50 {
			t.Errorf("got %d", got)
		}
	}
	zero := &Periodic{}
	if zero.Next() != 1 {
		t.Error("zero period should clamp to 1")
	}
}

// The paper's motivating pathology: with two sites in a loop body and
// strictly periodic 1-in-50 sampling, one site is sampled every 25th
// iteration and the other never. Geometric sampling hits both.
func TestPeriodicUnfairnessVsGeometricFairness(t *testing.T) {
	simulate := func(src Source) [2]int64 {
		var hits [2]int64
		countdown := src.Next()
		for iter := 0; iter < 100000; iter++ {
			for site := 0; site < 2; site++ {
				countdown--
				if countdown == 0 {
					hits[site]++
					countdown = src.Next()
				}
			}
		}
		return hits
	}
	per := simulate(&Periodic{Period: 50})
	if per[0] != 0 && per[1] != 0 {
		t.Errorf("periodic sampling should starve one site: %v", per)
	}
	geo := simulate(NewGeometric(5, 1.0/50))
	if geo[0] == 0 || geo[1] == 0 {
		t.Fatalf("geometric sampling starved a site: %v", geo)
	}
	ratio := float64(geo[0]) / float64(geo[1])
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("geometric sites should be hit equally: %v (ratio %.3f)", geo, ratio)
	}
	// Chi-square confirms the same: periodic is wildly non-uniform.
	if stats.ChiSquareUniform(per[:]) < stats.ChiSquareUniform(geo[:]) {
		t.Error("periodic should be less uniform than geometric")
	}
}

// chiSquareGeometric draws n countdowns and computes the chi-square
// goodness-of-fit statistic against the exact geometric PMF with
// success probability p, over the cells k=1..maxK plus one tail cell
// for k>maxK (so the cell probabilities sum to 1 and every expected
// count stays well above the usual >=5 validity floor).
func chiSquareGeometric(src Source, p float64, n int, maxK int64) float64 {
	counts := make([]int64, maxK+1) // counts[k-1] for k<=maxK; counts[maxK] = tail
	for i := 0; i < n; i++ {
		if k := src.Next(); k > maxK {
			counts[maxK]++
		} else {
			counts[k-1]++
		}
	}
	chi := 0.0
	for k := int64(1); k <= maxK; k++ {
		e := stats.GeometricPMF(p, k) * float64(n)
		o := float64(counts[k-1])
		chi += (o - e) * (o - e) / e
	}
	e := math.Pow(1-p, float64(maxK)) * float64(n) // P(X > maxK)
	o := float64(counts[maxK])
	return chi + (o-e)*(o-e)/e
}

// TestGeometricChiSquareFairnessGate is the statistical fairness gate:
// the countdown distribution must be indistinguishable from the ideal
// geometric law (the inter-arrival distribution of a fair Bernoulli
// process), and the test must have the power to reject an unfair
// sampler — the periodic source fails the identical statistic by
// orders of magnitude. Seeds are fixed, so the test is deterministic.
func TestGeometricChiSquareFairnessGate(t *testing.T) {
	const (
		n    = 200000
		maxK = 60
		p    = 1.0 / 20
		// chi-square critical value at significance 0.001 for 60 degrees
		// of freedom (61 cells): a fair sampler exceeds this one run in a
		// thousand, and the seeds are fixed.
		crit = 99.61
	)
	for _, tc := range []struct {
		name string
		src  Source
	}{
		{"geometric", NewGeometric(13, p)},
		// Bank sized to the sample count: cycling a smaller bank would
		// multiply-count each draw and inflate the statistic.
		{"bank", NewBank(NewGeometric(17, p), n)},
		{"bernoulli", NewBernoulli(19, p)},
	} {
		if chi := chiSquareGeometric(tc.src, p, n, maxK); chi > crit {
			t.Errorf("%s: chi-square %.1f exceeds the df=60 critical value %.2f — "+
				"countdowns are not geometrically distributed", tc.name, chi, crit)
		}
	}

	// Power: the periodic sampler (all mass on one cell) must fail the
	// same test overwhelmingly, or the gate is vacuous.
	if chi := chiSquareGeometric(&Periodic{Period: 20}, p, n, maxK); chi < 1000*crit {
		t.Errorf("periodic sampler only scored chi-square %.1f — the fairness gate has no power", chi)
	}
}

func TestBernoulliNextIsGeometric(t *testing.T) {
	b := NewBernoulli(9, 1.0/20)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(b.Next())
	}
	mean := sum / n
	if math.Abs(mean-20) > 1 {
		t.Errorf("mean %.2f, want ~20", mean)
	}
	if (&Bernoulli{density: 0}).Next() != NeverSample {
		t.Error("density 0")
	}
}

// Fairness property: the expected number of samples collected equals
// density × opportunities, for the countdown implementation, matching the
// direct Bernoulli implementation.
func TestCountdownSamplingMatchesBernoulliRate(t *testing.T) {
	const opportunities = 2000000
	d := 1.0 / 100

	g := NewGeometric(21, d)
	var samples int64
	countdown := g.Next()
	for i := 0; i < opportunities; i++ {
		countdown--
		if countdown == 0 {
			samples++
			countdown = g.Next()
		}
	}

	bern := NewBernoulli(22, d)
	var direct int64
	for i := 0; i < opportunities; i++ {
		if bern.Sample() {
			direct++
		}
	}

	want := d * opportunities
	for name, got := range map[string]int64{"countdown": samples, "bernoulli": direct} {
		if math.Abs(float64(got)-want)/want > 0.05 {
			t.Errorf("%s: %d samples, want ~%.0f", name, got, want)
		}
	}
}

// TestLazyBankMatchesEagerDraws is the equivalence behind the lazy fill:
// a bank over a private source hands out, lap after lap, exactly the
// first n values an identically seeded source draws up front.
func TestLazyBankMatchesEagerDraws(t *testing.T) {
	const seed, p = 23, 1.0 / 7
	for _, size := range []int{0, 1, 16, 1024} {
		b := NewBank(NewGeometric(seed, p), size)
		n := b.Len()
		if want := max(size, 1); n != want {
			t.Fatalf("NewBank(src, %d).Len() = %d, want %d", size, n, want)
		}
		eager := NewGeometric(seed, p)
		want := make([]int64, n)
		for i := range want {
			want[i] = eager.Next()
		}
		for i := 0; i < 3*n; i++ {
			if got := b.Next(); got != want[i%n] {
				t.Fatalf("size %d, draw %d: got %d, want %d", size, i, got, want[i%n])
			}
		}
	}
}

// TestResetReproducesFreshStream: a reset Geometric or Bank, whatever it
// drew before, is indistinguishable from a newly constructed one.
func TestResetReproducesFreshStream(t *testing.T) {
	used := NewGeometric(1, 0.1)
	for i := 0; i < 37; i++ {
		used.Next()
	}
	var zero Geometric
	for name, g := range map[string]*Geometric{"used": used, "zero": &zero} {
		g.Reset(9, 1.0/20)
		fresh := NewGeometric(9, 1.0/20)
		if g.Density() != fresh.Density() {
			t.Errorf("%s: density %v, want %v", name, g.Density(), fresh.Density())
		}
		for i := 0; i < 200; i++ {
			if got, want := g.Next(), fresh.Next(); got != want {
				t.Fatalf("%s geometric, draw %d: got %d, want %d", name, i, got, want)
			}
		}
	}
	used.Reset(4, 0) // a degenerate density must not keep the old ln(1-p)
	if got := used.Next(); got != NeverSample {
		t.Errorf("reset to density 0: Next() = %d, want NeverSample", got)
	}

	b := NewBank(NewGeometric(1, 0.1), 64)
	for i := 0; i < 100; i++ { // past one lap, cursor mid-bank
		b.Next()
	}
	var zeroBank Bank
	for _, size := range []int{16, 64, 128} { // shrink, same, grow
		for name, bank := range map[string]*Bank{"used": b, "zero": &zeroBank} {
			bank.Reset(NewGeometric(5, 0.2), size)
			fresh := NewBank(NewGeometric(5, 0.2), size)
			if bank.Len() != size {
				t.Fatalf("%s bank reset to %d: len %d", name, size, bank.Len())
			}
			for i := 0; i < 3*size; i++ {
				if got, want := bank.Next(), fresh.Next(); got != want {
					t.Fatalf("%s bank of %d, draw %d: got %d, want %d", name, size, i, got, want)
				}
			}
		}
	}
}

// TestGeometricResetAllocatesNothing: a sampled run re-seeds the VM's
// Geometric in place, so a reset costs neither a generator nor its state.
func TestGeometricResetAllocatesNothing(t *testing.T) {
	g := NewGeometric(1, 0.01)
	seed := int64(1)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		g.Reset(seed, 0.01)
		g.Next()
	})
	if allocs != 0 {
		t.Errorf("Reset + Next costs %v allocations", allocs)
	}
}

func TestNeverSamplesAndAllocatesNothing(t *testing.T) {
	var sink Source
	allocs := testing.AllocsPerRun(100, func() {
		sink = Never{}
		if sink.Next() != NeverSample {
			t.Fatal("Never sampled")
		}
	})
	if allocs != 0 {
		t.Errorf("Never costs %v allocations per use", allocs)
	}
}
