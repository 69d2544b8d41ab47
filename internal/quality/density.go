package quality

// density.go is the online check that ingested reports are consistent
// with the advertised 1/d geometric sampling density, in the spirit of
// the "Assessing the Quality of Binomial Samplers" statistical-distance
// framework (PAPERS.md): instead of trusting that clients sample fairly,
// measure the distance between what they report and what a fair sampler
// would produce.
//
// Under fair geometric-countdown sampling every dynamic site occurrence
// is an independent Bernoulli(1/d) trial (§2.1), so a completed run's
// total sampled-event count — the sum of its counter vector — is
// Binomial(N, 1/d) for that run's opportunity count N. For the small
// densities deployments use, Binomial(N, p) is within total-variation
// distance p of Poisson(Np), so a healthy cohort of comparable runs
// produces totals indistinguishable from a Poisson law at the empirical
// mean. The check therefore maintains a fixed-size histogram of
// per-report totals plus Welford mean/variance, and on demand computes
// the total-variation distance between the empirical distribution and
// Poisson(mean):
//
//   - a fair geometric sampler scores near 0 (plus O(sqrt(support/n))
//     estimation noise and the run-length-mixture term);
//   - a periodic sampler concentrates all mass on one or two totals and
//     scores near 1 — the §2.1 fairness pathology, caught at the
//     collector without any access to the client;
//   - a cohort sampling at a different density than advertised shifts
//     and reshapes the histogram (a density mixture is overdispersed),
//     inflating both the distance and the dispersion index.
//
// Crashed runs are excluded: a crash truncates the run at an arbitrary
// point, so its opportunity count is not comparable. The check assumes a
// cohort of roughly comparable run lengths (a scripted fleet, a fixed
// test input); strongly heterogeneous workloads inflate the distance
// through the mixture term and need per-cohort checks — see DESIGN §12.

import "math"

// densityHistCap bounds the per-report-total histogram; totals at or
// above it land in an overflow bucket and degrade the check gracefully.
const densityHistCap = 4096

type densityCheck struct {
	hist     [densityHistCap]uint64
	overflow uint64
	n        uint64
	mean     float64
	m2       float64 // Welford sum of squared deviations
}

// observe folds one completed run's total sampled-event count.
func (d *densityCheck) observe(total uint64) {
	if total < densityHistCap {
		d.hist[total]++
	} else {
		d.overflow++
	}
	d.n++
	delta := float64(total) - d.mean
	d.mean += delta / float64(d.n)
	d.m2 += delta * (float64(total) - d.mean)
}

// SamplingVerdict is the /quality sampling-distance report.
type SamplingVerdict struct {
	// Density is the advertised sampling density 1/d (0 when the
	// collector was not told one; the shape check still runs).
	Density float64 `json:"density"`
	// Reports is how many completed (non-crashed) runs were checked.
	Reports uint64  `json:"reports"`
	Mean    float64 `json:"mean_samples"`
	Var     float64 `json:"var_samples"`
	// Dispersion is Var/Mean: ~1 for a fair sampler on comparable runs,
	// ~0 for periodic sampling, inflated by density mixtures.
	Dispersion float64 `json:"dispersion"`
	// ImpliedOpportunities is Mean/Density — the implied per-run dynamic
	// site-occurrence count (0 when Density is unknown).
	ImpliedOpportunities float64 `json:"implied_opportunities"`
	// TVDistance is the total-variation distance between the empirical
	// per-run total distribution and Poisson(Mean), in [0, 1].
	TVDistance float64 `json:"tv_distance"`
	Threshold  float64 `json:"threshold"`
	// Verdict is "insufficient" (fewer than minCheckReports runs),
	// "consistent", or "drift" (TVDistance above Threshold).
	Verdict string `json:"verdict"`
}

// verdict computes the statistical-distance report. O(densityHistCap).
func (d *densityCheck) verdict(density, threshold float64, minReports uint64) SamplingVerdict {
	v := SamplingVerdict{Density: density, Reports: d.n, Threshold: threshold, Verdict: "insufficient"}
	if d.n == 0 {
		return v
	}
	v.Mean = d.mean
	if d.n > 1 {
		v.Var = d.m2 / float64(d.n-1)
	}
	if d.mean > 0 {
		v.Dispersion = v.Var / v.Mean
	}
	if density > 0 {
		v.ImpliedOpportunities = v.Mean / density
	}
	// TV(empirical, Poisson(mean)) = 1/2 Σ_k |p̂(k) - poi(k)|, with the
	// overflow bucket compared against the Poisson tail mass. Poisson
	// pmf in log space so large means do not underflow.
	n := float64(d.n)
	lam := d.mean
	tv, tail := 0.0, 1.0
	for k := 0; k < densityHistCap; k++ {
		var pk float64
		if lam > 0 {
			lg, _ := math.Lgamma(float64(k + 1))
			pk = math.Exp(-lam + float64(k)*math.Log(lam) - lg)
		} else if k == 0 {
			pk = 1
		}
		tail -= pk
		tv += math.Abs(float64(d.hist[k])/n - pk)
	}
	if tail < 0 {
		tail = 0
	}
	tv += math.Abs(float64(d.overflow)/n - tail)
	v.TVDistance = tv / 2
	if d.n < minReports {
		return v
	}
	if v.TVDistance > threshold {
		v.Verdict = "drift"
	} else {
		v.Verdict = "consistent"
	}
	return v
}
