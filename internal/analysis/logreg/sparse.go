// Sparse analysis engine: a CSR design matrix built straight from each
// report's nonzero counters, and a stochastic-gradient trainer whose ℓ1
// shrinkage is applied lazily, so per-sample cost is O(nonzeros) instead
// of O(features). Both are bit-identical to the dense implementations in
// logreg.go, which remain as differential oracles (see DESIGN §10 for
// the equivalence argument).

package logreg

import (
	"math"

	"cbi/internal/report"
	"cbi/internal/rng"
	"cbi/internal/telemetry"
)

// SparseDataset is the CSR (compressed sparse row) counterpart of
// Dataset: row i's features are Cols[RowStart[i]:RowStart[i+1]] with
// scaled values Vals[...], column indices ascending within each row.
// Only nonzero counters are stored — at 1/100 sampling density that is
// a small fraction of the retained feature space.
type SparseDataset struct {
	RowStart []int32
	Cols     []int32
	Vals     []float64
	// Y[i] is the outcome label: 1 = crashed, 0 = succeeded.
	Y []int
	// FeatureIdx maps dataset column j back to its counter index.
	FeatureIdx []int
	// Scale holds the per-feature scaling applied (divide-by), identical
	// bit for bit to the dense BuildDataset transform.
	Scale []float64
}

// Rows returns the number of samples.
func (ds *SparseDataset) Rows() int {
	if len(ds.RowStart) == 0 {
		return 0
	}
	return len(ds.RowStart) - 1
}

// NNZ returns the number of stored (nonzero) entries.
func (ds *SparseDataset) NNZ() int { return len(ds.Cols) }

// BuildSparseDataset extracts the counters retained by keep (nil keeps
// all) from the reports into CSR form, applying exactly the dense
// builder's §3.3.3 transform: scale each feature to [0,1] by its
// maximum, then normalize to unit sample variance. The per-feature
// Scale factors — and therefore every stored value — are bit-identical
// to BuildDataset's, because the variance recurrence replays the same
// floating-point operations in the same order, running the all-zero
// gaps between a feature's nonzeros through the same per-row update.
func BuildSparseDataset(reports []*report.Report, keep []bool) *SparseDataset {
	defer telemetry.StartSpan("logreg.build_sparse_dataset").End()
	if len(reports) == 0 {
		return &SparseDataset{}
	}
	idx, colOf := features(reports[0].NumCounters(), keep)
	ds := &SparseDataset{FeatureIdx: idx}
	rows := len(reports)

	// CSR fill from each report's sparse form (counter indices ascend, so
	// columns ascend within a row). Values are raw counts for now; the
	// scale division lands after Scale is known.
	ds.RowStart = make([]int32, 1, rows+1)
	for _, r := range reports {
		r.ForEachNonzero(func(j int, c uint64) {
			if j < len(colOf) && colOf[j] >= 0 {
				ds.Cols = append(ds.Cols, colOf[j])
				ds.Vals = append(ds.Vals, float64(c))
			}
		})
		ds.RowStart = append(ds.RowStart, int32(len(ds.Cols)))
		ds.Y = append(ds.Y, r.Label())
	}

	// Transpose to CSC so each feature's nonzeros can be walked in row
	// order with the zero gaps run as a register-resident loop.
	nnz := len(ds.Cols)
	features := len(idx)
	colPtr := make([]int32, features+1)
	for _, c := range ds.Cols {
		colPtr[c+1]++
	}
	for j := 0; j < features; j++ {
		colPtr[j+1] += colPtr[j]
	}
	colRow := make([]int32, nnz)
	colVal := make([]float64, nnz)
	fill := append([]int32(nil), colPtr[:features]...)
	for i := 0; i < rows; i++ {
		for e := ds.RowStart[i]; e < ds.RowStart[i+1]; e++ {
			c := ds.Cols[e]
			colRow[fill[c]] = int32(i)
			colVal[fill[c]] = ds.Vals[e]
			fill[c]++
		}
	}

	// Per-feature max scale + unit-variance normalization, replaying the
	// dense builder's exact operation sequence (see its comments).
	ds.Scale = make([]float64, features)
	for j := 0; j < features; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		maxv := 0.0
		for e := lo; e < hi; e++ {
			if colVal[e] > maxv {
				maxv = colVal[e]
			}
		}
		if maxv == 0 {
			maxv = 1
		}
		mean, m2 := 0.0, 0.0
		if lo < hi {
			next := lo
			for i := 0; i < rows; i++ {
				v := 0.0
				if next < hi && int(colRow[next]) == i {
					v = colVal[next] / maxv
					next++
				}
				delta := v - mean
				mean += delta / float64(i+1)
				m2 += delta * (v - mean)
			}
		}
		// A feature with no nonzeros leaves mean and m2 at exactly 0, the
		// same values the dense all-zero loop produces, so skipping it is
		// safe.
		variance := 0.0
		if rows > 1 {
			variance = m2 / float64(rows-1)
		}
		std := math.Sqrt(variance)
		if std == 0 {
			std = 1
		}
		ds.Scale[j] = maxv * std
	}
	for e := range ds.Vals {
		ds.Vals[e] /= ds.Scale[ds.Cols[e]]
	}
	return ds
}

// Project applies this dataset's feature selection and scaling to fresh
// reports, producing a compatible sparse dataset (the CSR counterpart of
// Dataset.Project).
func (ds *SparseDataset) Project(reports []*report.Report) *SparseDataset {
	out := &SparseDataset{FeatureIdx: ds.FeatureIdx, Scale: ds.Scale}
	colOf := columnsOf(ds.FeatureIdx)
	out.RowStart = make([]int32, 1, len(reports)+1)
	for _, r := range reports {
		r.ForEachNonzero(func(j int, c uint64) {
			if j >= len(colOf) {
				return
			}
			if col := colOf[j]; col >= 0 {
				out.Cols = append(out.Cols, col)
				out.Vals = append(out.Vals, float64(c)/ds.Scale[col])
			}
		})
		out.RowStart = append(out.RowStart, int32(len(out.Cols)))
		out.Y = append(out.Y, r.Label())
	}
	return out
}

// features lists the counters of an n-counter space that keep retains
// (all of them when keep is nil) and maps them to their dataset columns
// (see columnsOf).
func features(n int, keep []bool) ([]int, []int32) {
	var idx []int
	for j := 0; j < n; j++ {
		if keep == nil || (j < len(keep) && keep[j]) {
			idx = append(idx, j)
		}
	}
	return idx, columnsOf(idx)
}

// columnsOf maps each counter index in idx to its dataset column, and
// every other index up to the largest in idx to -1.
func columnsOf(idx []int) []int32 {
	maxCounter := 0
	for _, j := range idx {
		maxCounter = max(maxCounter, j+1)
	}
	colOf := make([]int32, maxCounter)
	for i := range colOf {
		colOf[i] = -1
	}
	for col, j := range idx {
		colOf[j] = int32(col)
	}
	return colOf
}

// denseRow scatters r's retained nonzero counters into a fresh row of
// the given width, at the columns colOf maps them to, each divided by
// its column's scale when scale is given (a training row starts raw).
func denseRow(r *report.Report, colOf []int32, columns int, scale []float64) []float64 {
	row := make([]float64, columns)
	r.ForEachNonzero(func(j int, c uint64) {
		if j >= len(colOf) {
			return
		}
		if col := colOf[j]; col >= 0 {
			row[col] = float64(c)
			if scale != nil {
				row[col] /= scale[col]
			}
		}
	})
	return row
}

// TrainSparse fits the same model as Train — bit for bit, given the same
// dataset values, config, and therefore visit order — in O(nonzeros) per
// sample instead of O(features).
//
// The dense trainer soft-thresholds every nonzero coefficient once per
// sample, even when the sample does not touch the feature: an untouched
// coefficient's update is Beta[j] += step·g·0 (a float64 no-op) followed
// by one shrink step. TrainSparse defers that work: owed[j] counts the
// samples whose shrinkage has not yet been applied to Beta[j], and the
// arrears are paid the next time feature j is touched (or at the end of
// training), replaying the identical one-compare-one-subtract threshold
// steps in the identical order. Because a coefficient driven to zero
// stays zero under further shrinkage, the catch-up loop stops early, so
// its amortized cost is bounded by the shrink steps the dense trainer
// would have executed on nonzero coefficients — without the dense
// trainer's O(features) scan per sample.
func TrainSparse(ds *SparseDataset, conf TrainConfig) *Model {
	defer telemetry.StartSpan("logreg.train_sparse").End()
	if conf.StepSize == 0 {
		conf.StepSize = 1e-3
	}
	if conf.Epochs == 0 {
		conf.Epochs = 60
	}
	features := len(ds.FeatureIdx)
	m := &Model{Beta: make([]float64, features), FeatureIdx: ds.FeatureIdx, Lambda: conf.Lambda}
	r := rng.New(conf.Seed)
	step := conf.StepSize
	shrink := step * conf.Lambda
	rows := ds.Rows()
	perm := make([]int, rows)
	// applied[j] = number of samples whose shrinkage is already reflected
	// in Beta[j]; t = samples processed so far.
	applied := make([]int, features)
	t := 0
	for epoch := 0; epoch < conf.Epochs; epoch++ {
		permute(r, perm)
		for _, i := range perm {
			lo, hi := ds.RowStart[i], ds.RowStart[i+1]
			// Pay the shrinkage arrears for this sample's features first,
			// so the margin sees the coefficients the dense trainer would
			// have at this point.
			z := m.Beta0
			for e := lo; e < hi; e++ {
				j := ds.Cols[e]
				if shrink != 0 {
					m.Beta[j] = catchUp(m.Beta[j], t-applied[j], shrink)
				}
				z += m.Beta[j] * ds.Vals[e]
			}
			mu := 1 / (1 + math.Exp(-z))
			g := float64(ds.Y[i]) - mu
			m.Beta0 += step * g
			for e := lo; e < hi; e++ {
				j := ds.Cols[e]
				b := m.Beta[j] + step*g*ds.Vals[e]
				// ℓ1 shrinkage with clipping at zero (truncated gradient),
				// identical to the dense update.
				switch {
				case b > shrink:
					b -= shrink
				case b < -shrink:
					b += shrink
				default:
					b = 0
				}
				m.Beta[j] = b
				applied[j] = t + 1
			}
			t++
		}
	}
	if shrink != 0 {
		for j := range m.Beta {
			m.Beta[j] = catchUp(m.Beta[j], t-applied[j], shrink)
		}
	}
	return m
}

// catchUp applies `owed` deferred soft-threshold steps to b, stopping
// early once b reaches zero (where further shrinkage is a fixpoint).
// Each step is the dense trainer's exact compare-and-subtract, so the
// result is bit-identical to applying them eagerly.
func catchUp(b float64, owed int, shrink float64) float64 {
	for ; owed > 0 && b != 0; owed-- {
		switch {
		case b > shrink:
			b -= shrink
		case b < -shrink:
			b += shrink
		default:
			b = 0
		}
	}
	return b
}

// probSparse computes the crash probability for CSR row i, accumulating
// coefficient terms in the same ascending-column order as the dense
// prob, so the sum is bit-identical.
func (m *Model) probSparse(ds *SparseDataset, i int) float64 {
	z := m.Beta0
	for e := ds.RowStart[i]; e < ds.RowStart[i+1]; e++ {
		z += m.Beta[ds.Cols[e]] * ds.Vals[e]
	}
	return 1 / (1 + math.Exp(-z))
}

// AccuracySparse returns the fraction of rows classified correctly — the
// sparse counterpart of Accuracy.
func (m *Model) AccuracySparse(ds *SparseDataset) float64 {
	rows := ds.Rows()
	if rows == 0 {
		return 0
	}
	ok := 0
	for i := 0; i < rows; i++ {
		class := 0
		if m.probSparse(ds, i) > 0.5 {
			class = 1
		}
		if class == ds.Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(rows)
}

// CrossValidateSparse mirrors CrossValidate on CSR datasets: the
// independent per-lambda TrainSparse fits fan out across conf.Workers
// goroutines and the winner is selected in lambda order. Because
// TrainSparse is bit-identical to Train and AccuracySparse to Accuracy,
// the selected lambda and model match the dense serial cross-validation
// exactly.
func CrossValidateSparse(train, cv *SparseDataset, lambdas []float64, conf TrainConfig) (float64, *Model) {
	defer telemetry.StartSpan("logreg.cross_validate_sparse").End()
	models := make([]*Model, len(lambdas))
	accs := make([]float64, len(lambdas))
	fanOut(len(lambdas), conf.Workers, func(k int) {
		c := conf
		c.Lambda = lambdas[k]
		models[k] = TrainSparse(train, c)
		accs[k] = models[k].AccuracySparse(cv)
	})
	return pickBest(lambdas, models, accs)
}
