package main

import (
	"testing"
	"time"
)

// testScale runs every workload at 1/100 size.
const testScale = 0.01

// exactCounts are the per-layer counts that must repeat exactly for a
// fixed seed (the ones README marks with a double dagger): a change that
// claims a gain by one of them may do so only because it does.
var exactCounts = []string{
	"instrument.sites", "instrument.code_size", "instrument.code_growth",
	"interp.steps", "interp.traps",
	"sampler.samples",
	"workloads.runs",
	"report.wire_bytes", "report.nonzeros", "report.aggstats_bytes",
	"elim.survivors",
	"logreg.rows", "logreg.nnz", "logreg.features", "logreg.model_nonzeros", "logreg.cv_accuracy",
}

func TestMain(m *testing.M) {
	probeMin = time.Millisecond
	m.Run()
}

// runOnce runs one workload in process and returns its result object and
// #info payload. result() itself enforces the metric contract: every
// metric BENCHMARK.json names for the mode is present, none it does not
// name was emitted, and every end-to-end metric is a finite non-zero
// number.
func runOnce(t *testing.T, sp *spec, workload string, seed int64, traced bool) (runResult, runInfo) {
	t.Helper()
	c := newRunCtx(sp, workload, seed, float64(sp.RunSeconds), traced, t.TempDir())
	c.scale = testScale
	if err := runWorkload(c); err != nil {
		t.Fatalf("%s (seed %d, traced %v): %v", workload, seed, traced, err)
	}
	res, err := c.result()
	if err != nil {
		t.Fatalf("%s (seed %d, traced %v): %v", workload, seed, traced, err)
	}
	for _, ch := range c.info.Checks {
		if !ch.OK {
			t.Errorf("%s (seed %d, traced %v): check %s failed: %s", workload, seed, traced, ch.Name, ch.Detail)
		}
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s (seed %d, traced %v): %d of %d operations failed", workload, seed, traced, res.Failed, res.Attempted)
	}
	return res, c.info
}

func TestWorkloads(t *testing.T) {
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json names %d end-to-end and %d per-layer metrics; the limits are 16 and 128",
			len(sp.EndToEnd), len(sp.PerLayer))
	}
	for _, w := range sp.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if workloads[w.Name] == nil {
				t.Fatalf("BENCHMARK.json names workload %q, which is not implemented", w.Name)
			}
			// Two traced runs with one seed: the exact counts and the
			// generated inputs must repeat.
			a, infoA := runOnce(t, sp, w.Name, 1, true)
			b, infoB := runOnce(t, sp, w.Name, 1, true)
			if len(a.Metrics) != len(sp.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d per-layer", len(a.Metrics), len(sp.PerLayer))
			}
			for _, name := range exactCounts {
				va, ok := a.Metrics[name]
				if !ok {
					t.Errorf("exact count %s is not a per-layer metric", name)
					continue
				}
				if vb := b.Metrics[name]; va.Value != vb.Value {
					t.Errorf("%s: %v then %v with one seed; must repeat exactly", name, va.Value, vb.Value)
				}
			}
			if len(infoA.Pools) == 0 {
				t.Error("no input pool hash recorded")
			}
			for pool, hash := range infoA.Pools {
				if infoB.Pools[pool] != hash {
					t.Errorf("pool %s differs between two runs with one seed", pool)
				}
			}
			// One untraced run with another seed: the end-to-end metrics,
			// and different inputs.
			e, infoE := runOnce(t, sp, w.Name, 2, false)
			if len(e.Metrics) != len(sp.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json names %d end-to-end", len(e.Metrics), len(sp.EndToEnd))
			}
			for pool, hash := range infoA.Pools {
				if infoE.Pools[pool] == hash {
					t.Errorf("pool %s is identical for seeds 1 and 2", pool)
				}
			}
			// The predicted bypasses: a workload that skips a layer reads 0
			// for that layer's load-dependent metrics.
			switch w.Name {
			case "ingest_bc", "analyze_bc":
				if v := a.Metrics["interp.busy_share"].Value; v != 0 {
					t.Errorf("interp.busy_share = %v on a workload that runs no VM in its window", v)
				}
			}
			switch w.Name {
			case "table2_vm", "analyze_bc":
				for _, name := range []string{"collect.requests", "collect.attempts", "collect.ingest_us", "collect.submit_us"} {
					if v := a.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v on a workload without a collector", name, v)
					}
				}
			case "fleet_ccrypt":
				// The ledger's rows must account for the wall clock (the run
				// itself fails its ledger check past the residual limit).
				sum := a.Metrics[ledgerVisibleWait].Value
				for _, row := range ledgerRows {
					sum += a.Metrics[row.name].Value
				}
				wall := a.Metrics["ledger.wall_us"].Value
				if wall <= 0 || sum < wall*(1-ledgerResidualLimit) || sum > wall*(1+ledgerResidualLimit) {
					t.Errorf("ledger rows sum to %.1f us of a %.1f us wall", sum, wall)
				}
			}
		})
	}
}
