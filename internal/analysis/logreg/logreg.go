// Package logreg implements the statistical-debugging model of §3.3:
// ℓ1-regularized logistic regression over predicate counters, trained by
// stochastic gradient ascent, with feature scaling and cross-validated
// choice of the regularization strength. Predicates with the largest
// trained coefficients are the suggested places to look for the bug.
package logreg

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cbi/internal/report"
	"cbi/internal/rng"
	"cbi/internal/telemetry"
)

// Dataset is a dense design matrix over the retained features.
type Dataset struct {
	// X[i][j] is the (scaled) value of feature j in run i.
	X [][]float64
	// Y[i] is the outcome label: 1 = crashed, 0 = succeeded.
	Y []int
	// FeatureIdx maps dataset feature j back to its counter index.
	FeatureIdx []int
	// Scale holds the per-feature scaling applied (divide-by), so test
	// data can reuse the training transform.
	Scale []float64
}

// BuildDataset extracts the counters retained by keep (nil keeps all)
// from the reports, scales each feature to [0,1] by its maximum, then
// normalizes to unit sample variance (§3.3.3: "all the input features are
// shifted and scaled to lie on the interval [0,1], then normalized to
// have unit sample variance").
func BuildDataset(reports []*report.Report, keep []bool) *Dataset {
	defer telemetry.StartSpan("logreg.build_dataset").End()
	if len(reports) == 0 {
		return &Dataset{}
	}
	idx, colOf := features(reports[0].NumCounters(), keep)
	ds := &Dataset{FeatureIdx: idx}
	raw := make([][]float64, len(reports))
	for i, r := range reports {
		raw[i] = denseRow(r, colOf, len(idx), nil)
		ds.Y = append(ds.Y, r.Label())
	}
	// Scale to [0,1] by max, then unit variance.
	ds.Scale = make([]float64, len(idx))
	for j := range idx {
		maxv := 0.0
		for i := range raw {
			if raw[i][j] > maxv {
				maxv = raw[i][j]
			}
		}
		if maxv == 0 {
			maxv = 1
		}
		mean, m2 := 0.0, 0.0
		for i := range raw {
			v := raw[i][j] / maxv
			delta := v - mean
			mean += delta / float64(i+1)
			m2 += delta * (v - mean)
		}
		variance := 0.0
		if len(raw) > 1 {
			variance = m2 / float64(len(raw)-1)
		}
		std := math.Sqrt(variance)
		if std == 0 {
			std = 1
		}
		ds.Scale[j] = maxv * std
	}
	ds.X = raw
	for i := range ds.X {
		for j := range idx {
			ds.X[i][j] /= ds.Scale[j]
		}
	}
	return ds
}

// Split partitions the reports into train/cv/test sets with the given
// fractions (§3.3.3 uses roughly 62%/7%/31%).
//
// Fractions are clamped to [0,1], and a cvFrac that would push the
// train+cv total past the whole set is reduced so the split never
// over-allocates. Integer truncation on a small report set can round a
// positive cvFrac down to zero runs; in that case one run is moved from
// the test set into cv (when at least two non-train runs exist), so a
// requested cross-validation set is never silently empty.
func Split(reports []*report.Report, trainFrac, cvFrac float64, seed int64) (train, cv, test []*report.Report) {
	n := len(reports)
	trainFrac = clampFrac(trainFrac)
	cvFrac = clampFrac(cvFrac)
	if trainFrac+cvFrac > 1 {
		cvFrac = 1 - trainFrac
	}
	nTrain := int(trainFrac * float64(n))
	nCV := int(cvFrac * float64(n))
	if cvFrac > 0 && nCV == 0 && n-nTrain >= 2 {
		nCV = 1
	}
	if nTrain+nCV > n {
		nCV = n - nTrain
	}
	perm := rng.New(seed).Perm(n)
	for i, pi := range perm {
		switch {
		case i < nTrain:
			train = append(train, reports[pi])
		case i < nTrain+nCV:
			cv = append(cv, reports[pi])
		default:
			test = append(test, reports[pi])
		}
	}
	return train, cv, test
}

func clampFrac(f float64) float64 {
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	}
	return f
}

// Model is a trained logistic-regression classifier.
type Model struct {
	Beta0      float64
	Beta       []float64
	FeatureIdx []int
	Lambda     float64
}

// TrainConfig controls stochastic gradient ascent.
type TrainConfig struct {
	// Lambda is the ℓ1 regularization strength (§3.3.3 cross-validates to
	// 0.3 for bc).
	Lambda float64
	// StepSize is the SGA step (§3.3.3 uses 1e-5 on bc's scale; defaults
	// to 1e-3 here).
	StepSize float64
	// Epochs is the number of passes through the training set (the paper's
	// model "usually converges within sixty iterations").
	Epochs int
	// Seed shuffles the visit order.
	Seed int64
	// Workers bounds the concurrency of CrossValidate's independent
	// per-lambda fits (0 = NumCPU). Each fit seeds its own RNG from Seed,
	// so the selected model is bit-identical at any worker count. Train
	// itself is always sequential: SGA is an inherently ordered scan.
	Workers int
}

// permute fills buf with the same permutation rand.Perm would return
// from the same generator state — the identical in-place Fisher–Yates,
// consuming one Intn per element — without rand.Perm's per-call
// allocation. The result is independent of buf's prior contents.
func permute(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// Train fits the model by maximizing the ℓ1-penalized log likelihood
// with stochastic gradient ascent (§3.3.2). The ℓ1 subgradient uses
// clipping at zero so coefficients are truly sparse.
func Train(ds *Dataset, conf TrainConfig) *Model {
	defer telemetry.StartSpan("logreg.train").End()
	if conf.StepSize == 0 {
		conf.StepSize = 1e-3
	}
	if conf.Epochs == 0 {
		conf.Epochs = 60
	}
	m := &Model{Beta: make([]float64, len(ds.FeatureIdx)), FeatureIdx: ds.FeatureIdx, Lambda: conf.Lambda}
	r := rng.New(conf.Seed)
	step := conf.StepSize
	perm := make([]int, len(ds.X))
	for epoch := 0; epoch < conf.Epochs; epoch++ {
		permute(r, perm)
		for _, i := range perm {
			x := ds.X[i]
			mu := m.prob(x)
			g := float64(ds.Y[i]) - mu
			m.Beta0 += step * g
			for j, xv := range x {
				if xv == 0 && m.Beta[j] == 0 {
					continue
				}
				b := m.Beta[j] + step*g*xv
				// ℓ1 shrinkage with clipping at zero (truncated gradient).
				shrink := step * conf.Lambda
				switch {
				case b > shrink:
					b -= shrink
				case b < -shrink:
					b += shrink
				default:
					b = 0
				}
				m.Beta[j] = b
			}
		}
	}
	return m
}

func (m *Model) prob(x []float64) float64 {
	z := m.Beta0
	for j, xv := range x {
		if xv != 0 {
			z += m.Beta[j] * xv
		}
	}
	return 1 / (1 + math.Exp(-z))
}

// Predict returns the crash probability for a feature row.
func (m *Model) Predict(x []float64) float64 { return m.prob(x) }

// Classify quantizes Predict at 1/2 (§3.3.2).
func (m *Model) Classify(x []float64) int {
	if m.prob(x) > 0.5 {
		return 1
	}
	return 0
}

// Accuracy returns the fraction of rows classified correctly.
func (m *Model) Accuracy(ds *Dataset) float64 {
	if len(ds.X) == 0 {
		return 0
	}
	ok := 0
	for i, x := range ds.X {
		if m.Classify(x) == ds.Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(ds.X))
}

// NonzeroCount returns the number of features with nonzero coefficients —
// the sparsity the ℓ1 penalty buys.
func (m *Model) NonzeroCount() int {
	n := 0
	for _, b := range m.Beta {
		if b != 0 {
			n++
		}
	}
	return n
}

// Ranked is a feature with its trained coefficient.
type Ranked struct {
	Counter int // counter index in the program's counter space
	Beta    float64
}

// TopFeatures returns the k features with the largest positive
// coefficients — the crash predictors (§3.3.3: "predicates with the
// largest β coefficients suggest where to begin looking for the bug").
func (m *Model) TopFeatures(k int) []Ranked {
	var all []Ranked
	for j, b := range m.Beta {
		if b > 0 {
			all = append(all, Ranked{Counter: m.FeatureIdx[j], Beta: b})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Beta != all[j].Beta {
			return all[i].Beta > all[j].Beta
		}
		return all[i].Counter < all[j].Counter
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// Rank returns the 1-based rank of the given counter among positive
// coefficients, or 0 if its coefficient is not positive. (§3.3.3 reports
// the smoking-gun predicate ranked 240th.)
func (m *Model) Rank(counter int) int {
	all := m.TopFeatures(0)
	for i, r := range all {
		if r.Counter == counter {
			return i + 1
		}
	}
	return 0
}

// CrossValidate trains one model per lambda and returns the lambda whose
// model classifies the cv set best, with ties going to the stronger
// regularization (sparser model).
//
// The per-lambda fits are independent (each Train seeds its own RNG from
// conf.Seed), so they fan out across conf.Workers goroutines; the winner
// is then chosen by scanning lambdas in their given order, exactly as
// the serial loop did, making the selected lambda and model bit-identical
// at any worker count.
func CrossValidate(train, cv *Dataset, lambdas []float64, conf TrainConfig) (float64, *Model) {
	defer telemetry.StartSpan("logreg.cross_validate").End()
	models := make([]*Model, len(lambdas))
	accs := make([]float64, len(lambdas))
	fanOut(len(lambdas), conf.Workers, func(k int) {
		c := conf
		c.Lambda = lambdas[k]
		models[k] = Train(train, c)
		accs[k] = models[k].Accuracy(cv)
	})
	return pickBest(lambdas, models, accs)
}

// pickBest replays the serial cross-validation selection: lambdas in
// input order, best cv accuracy wins, ties go to the sparser model.
func pickBest(lambdas []float64, models []*Model, accs []float64) (float64, *Model) {
	bestLambda := 0.0
	var bestModel *Model
	bestAcc := -1.0
	for k, l := range lambdas {
		better := accs[k] > bestAcc ||
			(accs[k] == bestAcc && bestModel != nil && models[k].NonzeroCount() < bestModel.NonzeroCount())
		if better {
			bestAcc, bestLambda, bestModel = accs[k], l, models[k]
		}
	}
	return bestLambda, bestModel
}

// fanOut runs f(0..n-1) on a pool of `workers` goroutines (0 = NumCPU),
// degenerating to an inline loop when one worker suffices.
func fanOut(n, workers int, f func(k int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			f(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				f(k)
			}
		}()
	}
	wg.Wait()
}

// Project applies a training dataset's feature selection and scaling to
// fresh reports, producing a compatible dataset.
func (ds *Dataset) Project(reports []*report.Report) *Dataset {
	out := &Dataset{FeatureIdx: ds.FeatureIdx, Scale: ds.Scale}
	colOf := columnsOf(ds.FeatureIdx)
	for _, r := range reports {
		out.X = append(out.X, denseRow(r, colOf, len(ds.FeatureIdx), ds.Scale))
		out.Y = append(out.Y, r.Label())
	}
	return out
}
