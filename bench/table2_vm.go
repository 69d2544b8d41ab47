package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/telemetry/trace"
	wl "cbi/internal/workloads"
)

// Sizes of table2_vm. Each cell runs a fixed number of VM steps per
// round — about 55 ms on the reference machine at the default window —
// so the mix of work is identical on both sides of a comparison and the
// process's CPU per run weighs every cell by what it costs.
const (
	table2Rounds         = 5
	table2StepsPerSecond = 450_000 // per cell, per round, per second of window
	table2BuildReps      = 20
)

// The four configurations of the paper's Table 2.
const (
	cellBaseline = iota // no instrumentation at all
	cellUncond          // every site checked, no sampling
	cellSampled100
	cellSampled1000
	numCells
)

var (
	cellNames   = [numCells]string{"baseline", "uncond", "sampled_100", "sampled_1000"}
	cellDensity = [numCells]float64{0, 0, 1.0 / 100, 1.0 / 1000}
)

// kernel is one Table 2 benchmark in its four configurations.
type kernel struct {
	name string
	prog [numCells]*cfg.Program
	code [numCells]*interp.Compiled
	conf [numCells]interp.Config
	ref  [numCells]interp.Result // the fused engine's first result
	reps [numCells]int
}

// table2VM is interp alone: the 13 Olden/SPEC kernels under the bounds
// scheme, long dispatch-bound runs, no collector anywhere.
type table2VM struct {
	srcs    []source
	kernels []*kernel
	tracer  *trace.Collector
}

func table2Sources() []source {
	var srcs []source
	for _, b := range wl.All() {
		srcs = append(srcs, source{name: b.Name, text: b.Source, schemes: instrument.SchemeSet{Bounds: true}})
	}
	return srcs
}

func setupTable2VM(c *runCtx, tr *trace.Collector) (instance, error) {
	t := &table2VM{srcs: table2Sources(), tracer: tr}
	if n := c.fixed(float64(len(t.srcs)), 3); n < len(t.srcs) {
		t.srcs = t.srcs[2 : 2+n] // test scale only: em3d, health, mst, the short ones
	}
	progs, _, err := buildAll(t.srcs)
	if err != nil {
		return nil, err
	}
	budget := table2StepsPerSecond * c.seconds * c.scale
	for i, bp := range progs {
		k := &kernel{name: t.srcs[i].name}
		k.prog = [numCells]*cfg.Program{bp.baseline, bp.uncond, bp.sampled, bp.sampled}
		k.code = [numCells]*interp.Compiled{interp.Compile(bp.baseline), interp.Compile(bp.uncond), bp.sampledCode, bp.sampledCode}
		for cell := range k.conf {
			k.conf[cell] = interp.Config{
				Seed:          c.seed*7919 + int64(i),
				Density:       cellDensity[cell],
				CountdownSeed: c.seed*104729 + int64(i)*17 + int64(cell),
			}
			// The first run doubles as the warm-up round and fixes the
			// result every later run must repeat exactly.
			res := k.code[cell].Run(k.conf[cell])
			if res.Outcome != interp.OutcomeOK {
				return nil, fmt.Errorf("%s (%s): run crashed: %v", k.name, cellNames[cell], res.Trap)
			}
			k.ref[cell] = res
			k.reps[cell] = int(budget/float64(res.Steps) + 0.5)
			if k.reps[cell] < 1 {
				k.reps[cell] = 1
			}
		}
		t.kernels = append(t.kernels, k)
	}
	return t, nil
}

func (t *table2VM) measure(c *runCtx, size float64) (*pass, error) {
	p := newPass()
	m := p.layer
	p0 := sampleProc()

	// wall[k][cell][round] is seconds per run.
	wall := make([][numCells][]float64, len(t.kernels))
	runs, mismatches := 0, 0
	rounds := c.fixed(table2Rounds, 2)
	// The tool chain, as a deployment pays it: parse to bytecode, all 13,
	// a few builds at the head of every round, so that build_ms is a median
	// over the whole window like the cells' times.
	buildsPerRound := max(int(table2BuildReps*size*c.scale/float64(rounds)+0.5), 2)
	var builds buildTimes
	for round := 0; round < rounds; round++ {
		// Every round starts from a collected heap, so the rounds see the
		// same allocator state and the memory high-water mark repeats.
		runtime.GC()
		for i := 0; i < buildsPerRound; i++ {
			if err := builds.add(t.srcs); err != nil {
				return nil, err
			}
		}
		roundSpan := t.tracer.StartSpan("table2.round")
		for ki, k := range t.kernels {
			// Interleave the cells and rotate their order per round, so
			// drift in the machine's speed lands on every cell alike.
			for ci := 0; ci < numCells; ci++ {
				cell := (ci + round) % numCells
				reps := int(float64(k.reps[cell])*size + 0.5)
				if reps < 1 {
					reps = 1
				}
				span := roundSpan.StartChild("table2.cell")
				span.SetAttr("kernel", k.name)
				span.SetAttr("config", cellNames[cell])
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					res := k.code[cell].Run(k.conf[cell])
					if res.Steps != k.ref[cell].Steps || res.SamplesTaken != k.ref[cell].SamplesTaken {
						mismatches++
					}
				}
				wall[ki][cell] = append(wall[ki][cell], time.Since(t0).Seconds()/float64(reps))
				span.End()
				runs += reps
			}
		}
		roundSpan.End()
	}
	p1 := sampleProc()
	c.ops(runs, mismatches)
	c.info.Sizes["table2_vm.runs"] = float64(runs)
	c.info.Sizes["table2_vm.rounds"] = float64(rounds)

	// Ratios are medians of per-round ratios: numerator and denominator of
	// one ratio ran within a fraction of a second of each other.
	ratio := func(ki, num, den int) float64 {
		rs := make([]float64, rounds)
		for r := range rs {
			rs[r] = wall[ki][num][r] / wall[ki][den][r]
		}
		return median(rs)
	}
	var overS, overS1000, overU, stepsPerS, runMS []float64
	var nsPerStep [numCells][]float64
	var steps, samples, crossings float64
	for ki, k := range t.kernels {
		overS = append(overS, ratio(ki, cellSampled100, cellBaseline))
		overS1000 = append(overS1000, ratio(ki, cellSampled1000, cellBaseline))
		overU = append(overU, ratio(ki, cellUncond, cellBaseline))
		sec := median(wall[ki][cellSampled100])
		stepsPerS = append(stepsPerS, float64(k.ref[cellSampled100].Steps)/sec)
		runMS = append(runMS, sec*1e3)
		for cell := 0; cell < numCells; cell++ {
			nsPerStep[cell] = append(nsPerStep[cell], median(wall[ki][cell])*1e9/float64(k.ref[cell].Steps))
		}
		steps += float64(k.ref[cellSampled100].Steps)
		samples += float64(k.ref[cellSampled100].SamplesTaken)
		// The unconditional build fires its probe at every site crossing.
		crossings += float64(k.ref[cellUncond].SamplesTaken)
	}
	p.wall = p1.at.Sub(p0.at)
	p.ops = runs
	p.work = geomean(stepsPerS)
	p.opMS = geomean(runMS)
	p.proc = p0.until(p1)

	m["build_ms"] = builds.report(m, t.srcs)
	m["overhead_sampled"] = geomean(overS)
	m["overhead_sampled_1000"] = geomean(overS1000)
	m["overhead_uncond"] = geomean(overU)
	m["interp.steps"] = steps
	m["interp.ns_per_step.baseline"] = geomean(nsPerStep[cellBaseline])
	m["interp.ns_per_step.uncond"] = geomean(nsPerStep[cellUncond])
	m["interp.ns_per_step.sampled"] = geomean(nsPerStep[cellSampled100])
	m["sampler.samples"] = samples
	if crossings > 0 {
		m["sampler.density_ratio"] = samples / crossings / cellDensity[cellSampled100]
	}
	return p, nil
}

func (t *table2VM) probes(c *runCtx, p *pass) {
	samplerLayer(p.spanLayer, cellDensity[cellSampled100])
}

// verify runs every cell once on the tree-walking interpreter, the
// independent oracle, and demands the fused engine's result bit for bit.
func (t *table2VM) verify(c *runCtx) {
	h := sha256.New()
	for _, k := range t.kernels {
		for cell := 0; cell < numCells; cell++ {
			conf := k.conf[cell]
			conf.Engine = interp.EngineTree
			want := interp.Run(k.prog[cell], conf)
			got := k.ref[cell]
			same := want.Outcome == got.Outcome && want.ExitCode == got.ExitCode &&
				want.Steps == got.Steps && want.SamplesTaken == got.SamplesTaken &&
				reflect.DeepEqual(want.Counters, got.Counters)
			c.check(fmt.Sprintf("table2_vm.oracle.%s.%s", k.name, cellNames[cell]), same,
				fmt.Sprintf("fused: %d steps, %d samples; tree walker: %d steps, %d samples",
					got.Steps, got.SamplesTaken, want.Steps, want.SamplesTaken))
			fmt.Fprintf(h, "%s %s %d %d %d\n", k.name, cellNames[cell], conf.Seed, conf.CountdownSeed, got.Steps)
		}
	}
	c.info.Pools["table2_vm.runs"] = hex.EncodeToString(h.Sum(nil))
}

func (t *table2VM) close() {}
