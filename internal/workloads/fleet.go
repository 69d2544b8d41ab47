package workloads

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/cfg"
	"cbi/internal/interp"
	"cbi/internal/report"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
)

// ReportOf converts a VM result into a §2.5 feedback report.
func ReportOf(program string, id uint64, res interp.Result) *report.Report {
	rep := &report.Report{
		RunID:    id,
		Program:  program,
		Crashed:  res.Outcome == interp.OutcomeCrash,
		ExitCode: res.ExitCode,
		Counters: res.Counters,
		Trace:    res.Trace,
	}
	if res.Trap != nil {
		rep.TrapKind = res.Trap.Kind.String()
	}
	return rep
}

// FleetConfig parameterizes a fuzzing fleet: many independent runs of one
// instrumented program, each with its own random input and its own
// countdown bank, mimicking the paper's thousands of scripted trials.
type FleetConfig struct {
	Runs     int
	Density  float64
	SeedBase int64
	Fuel     uint64
	// Engine selects the execution engine (default interp.EngineFused).
	// With the bytecode engines the program is lowered to bytecode once,
	// before the workers launch, and the read-only compiled form is shared
	// by every worker goroutine.
	Engine interp.Engine
	// Workers is the number of runs executed concurrently (default
	// runtime.NumCPU()). Per-run seeds derive deterministically from the
	// run index, and results are merged in run-ID order, so the produced
	// DB is bit-identical to a serial (Workers: 1) fleet.
	Workers int
	// TraceCapacity enables the bounded ordered trace (see
	// interp.Config.TraceCapacity).
	TraceCapacity int
	// Submit, when set, receives every report as it is produced (e.g. a
	// collect.Client's SubmitContext); reports are also returned in the
	// DB. The context carries the run's trace span when Tracer is set,
	// so a trace-aware submitter extends the same trace across the wire.
	// With Workers > 1 Submit is called concurrently and must be safe
	// for concurrent use (collect.Client is, including batched mode).
	Submit func(context.Context, *report.Report) error
	// Tracer, when set, opens one distributed-tracing trace per run: a
	// fleet.run root span whose context flows into Submit.
	Tracer *trace.Collector
}

// fleetMetrics caches the per-workload telemetry handles so the run loop
// touches only atomics.
type fleetMetrics struct {
	runs       *telemetry.Counter
	crashes    *telemetry.Counter
	crashRatio *telemetry.Gauge
	runSeconds *telemetry.Histogram
	runSteps   *telemetry.Histogram
}

func newFleetMetrics(workload string) fleetMetrics {
	label := fmt.Sprintf("{workload=%q}", workload)
	return fleetMetrics{
		runs:       telemetry.C("fleet_runs_total" + label),
		crashes:    telemetry.C("fleet_crashes_total" + label),
		crashRatio: telemetry.G("fleet_crash_ratio" + label),
		runSeconds: telemetry.H("fleet_run_seconds", telemetry.DefBuckets),
		runSteps:   telemetry.H("fleet_run_steps", telemetry.StepBuckets),
	}
}

// runFleet drives the shared fleet loop: one interpreter run per
// iteration, per-run duration/fuel histograms, crash counters, and the
// crash-rate gauge, all under a "fleet.<workload>" span.
//
// Runs execute on a pool of fc.Workers goroutines. Each worker calls
// newConfFor once and asks the function it returns for the config of
// every run it makes, so host state that is costly to build (ccrypt's
// world) is built per worker and reset per run. A run's config derives
// only from its index, and every worker writes its report into a
// run-ID-indexed slot, so the assembled DB is bit-identical to the serial
// loop regardless of scheduling.
func runFleet(workload string, prog *cfg.Program, fc FleetConfig,
	newConfFor func() func(i int) interp.Config) (*report.DB, error) {
	span := telemetry.StartSpan("fleet." + workload)
	defer span.End()
	workers := fc.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > fc.Runs && fc.Runs > 0 {
		workers = fc.Runs
	}
	telemetry.G(fmt.Sprintf("fleet_workers{workload=%q}", workload)).Set(float64(workers))
	telemetry.G(fmt.Sprintf("vm_engine{workload=%q,engine=%q}", workload, fc.Engine)).Set(1)
	m := newFleetMetrics(workload)

	// Compile once, share everywhere: the bytecode form is immutable, so
	// all workers execute the same Compiled with per-run state confined
	// to their own VMs.
	var code *interp.Compiled
	if fc.Engine != interp.EngineTree {
		compileSpan := telemetry.StartSpan("fleet.compile")
		code = interp.Compile(prog)
		compileSpan.End()
	}

	var (
		reps    = make([]*report.Report, fc.Runs)
		crashed atomic.Int64
		next    atomic.Int64
		failed  atomic.Bool
		errMu   sync.Mutex
		errRun  int
		errVal  error
	)
	// fail records the error from the lowest-indexed failing run, so the
	// reported error is deterministic even under concurrent failures.
	fail := func(i int, err error) {
		errMu.Lock()
		if errVal == nil || i < errRun {
			errRun, errVal = i, err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	// One trace per deployed run: execute + submit nest under it, and
	// the collector's ingest spans continue it (all nil-safe when no
	// Tracer is configured).
	runOne := func(i int, confFor func(i int) interp.Config) error {
		runSpan := fc.Tracer.StartSpan("fleet.run")
		defer runSpan.End()
		runSpan.SetAttr("workload", workload)
		runSpan.SetAttr("run_id", strconv.Itoa(i))
		execSpan := runSpan.StartChild("fleet.execute")
		conf := confFor(i)
		conf.Engine = fc.Engine
		t0 := time.Now()
		var res interp.Result
		if code != nil {
			res = code.Run(conf)
		} else {
			res = interp.Run(prog, conf)
		}
		m.runSeconds.Observe(time.Since(t0).Seconds())
		execSpan.End()
		m.runSteps.Observe(float64(res.Steps))
		m.runs.Inc()
		if res.Outcome == interp.OutcomeCrash {
			m.crashes.Inc()
			crashed.Add(1)
			runSpan.SetAttr("crashed", "true")
		}
		rep := ReportOf(workload, uint64(i), res)
		reps[i] = rep
		if fc.Submit != nil {
			return fc.Submit(trace.NewContext(context.Background(), runSpan), rep)
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			confFor := newConfFor()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= fc.Runs {
					return
				}
				if err := runOne(i, confFor); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errVal != nil {
		return nil, errVal
	}

	// Assemble in run-ID order: Add validates each report's shape exactly
	// as the serial loop did, and ordering is independent of scheduling.
	db := report.NewDB(workload, prog.NumCounters)
	for _, rep := range reps {
		if err := db.Add(rep); err != nil {
			return nil, err
		}
	}
	if fc.Runs > 0 {
		m.crashRatio.Set(float64(crashed.Load()) / float64(fc.Runs))
	}
	return db, nil
}

// CcryptFleet runs the ccrypt program across many randomized worlds.
// prog must have been built against CcryptBuiltins().
func CcryptFleet(prog *cfg.Program, fc FleetConfig) (*report.DB, error) {
	return runFleet("ccrypt", prog, fc, func() func(i int) interp.Config {
		world := NewCcryptWorld(0)
		intrinsics := world.Intrinsics()
		return func(i int) interp.Config {
			seed := fc.SeedBase + int64(i)
			world.Reset(seed*2654435761 + 1)
			return interp.Config{
				Seed:          seed,
				Density:       fc.Density,
				CountdownSeed: seed*40503 + 7,
				Fuel:          fc.Fuel,
				TraceCapacity: fc.TraceCapacity,
				Intrinsics:    intrinsics,
			}
		}
	})
}

// BCFleet runs the bc program across many random self-generated inputs.
// prog must have been built against minic.DefaultBuiltins() (the program
// generates its own input with rand()).
func BCFleet(prog *cfg.Program, fc FleetConfig) (*report.DB, error) {
	return runFleet("bc", prog, fc, func() func(i int) interp.Config {
		return func(i int) interp.Config {
			seed := fc.SeedBase + int64(i)
			return interp.Config{
				Seed:          seed*6364136223846793005 + 1442695040888963407,
				Density:       fc.Density,
				CountdownSeed: seed*40503 + 11,
				Fuel:          fc.Fuel,
				TraceCapacity: fc.TraceCapacity,
			}
		}
	})
}

// SiteSpansOf lists each site's counter range, as needed by elimination
// by lack of failing coverage.
func SiteSpansOf(prog *cfg.Program) [][2]int {
	spans := make([][2]int, 0, len(prog.Sites))
	for _, s := range prog.Sites {
		spans = append(spans, [2]int{s.CounterBase, s.NumCounters})
	}
	return spans
}
