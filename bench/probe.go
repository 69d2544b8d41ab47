package main

import (
	"runtime"
	"time"
)

// probeMin is how long each single-layer probe runs. Probes are per-layer
// diagnostics without a bound, so a tenth of a second of samples is
// enough to see a layer move and keeps a traced run inside its budget.
// The tests shorten it.
var probeMin = 100 * time.Millisecond

// probeSink keeps a probed call's result alive, so the compiler cannot
// drop a call whose value is otherwise unused.
var probeSink any

// probeResult is one probe's cost per call.
type probeResult struct {
	ns     float64
	allocs float64
	bytes  float64
}

// probe calls f in doubling batches until probeMin has elapsed and
// returns the mean cost per call, allocations included.
func probe(f func()) probeResult {
	f() // first call pays lazy initialisation off the clock
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls, batch := 0, 1
	t0 := time.Now()
	for time.Since(t0) < probeMin {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
		batch *= 2
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(calls)
	return probeResult{
		ns:     float64(elapsed.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
}
