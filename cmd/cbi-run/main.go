// cbi-run executes a MiniC program (a file or built-in workload) under
// the interpreter — baseline, unconditionally instrumented, or sampled —
// and emits the run's feedback report, optionally submitting it to a
// collection server.
//
// Usage:
//
//	cbi-run -workload bc -scheme scalar-pairs -sample -density 0.001 -seed 7
//	cbi-run -workload ccrypt -scheme returns -sample -density 0.01 -submit http://127.0.0.1:8099
//	cbi-run -workload compress -scheme branches -sample -profile
//
// -profile turns on the VM overhead profiler: a per-function,
// per-path-kind breakdown of interpreter steps (baseline work vs
// fast-path countdown decrements vs slow-path site instrumentation vs
// acquire-threshold checks) whose total matches the run's step count
// exactly, plus a folded flame-stack file for flamegraph.pl/speedscope.
// -trace-out records the run as a distributed trace (run → build /
// execute / submit) in Chrome trace-event JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cbi/internal/cfg"
	"cbi/internal/collect"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/minic"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
	"cbi/internal/workloads"
)

func main() {
	var (
		file     = flag.String("file", "", "MiniC source file")
		workload = flag.String("workload", "", "built-in workload name")
		scheme   = flag.String("scheme", "", "schemes: returns, scalar-pairs, branches, bounds, asserts, or all (comma separated)")
		sample   = flag.Bool("sample", false, "apply the sampling transformation")
		engine   = flag.String("engine", "fused", "execution engine: fused (bytecode VM with the superinstruction fast path), compiled (bytecode VM, exact loop only), or tree (reference walker)")
		density  = flag.Float64("density", 1.0/1000, "sampling density for -sample")
		seed     = flag.Int64("seed", 1, "run seed (program rand and fuzzed environment)")
		cdSeed   = flag.Int64("countdown-seed", 1, "countdown bank seed")
		submit   = flag.String("submit", "", "collection server base URL")
		batch    = flag.Int("batch", 1, "with -submit, post via the batched /reports endpoint when > 1")
		out      = flag.String("report", "", "write the encoded report to this file")
		traceCap = flag.Int("trace", 0, "keep an ordered trace of the last N sampled events")
		showOut  = flag.Bool("stdout", true, "echo program output")
		profile  = flag.Bool("profile", false, "attribute every interpreter step to a function and path kind; print the breakdown")
		profOut  = flag.String("profile-out", "cbi-profile.folded", "folded flame-stack output file for -profile")
		traceOut = flag.String("trace-out", "", "write the run's distributed trace to this file (.json Chrome trace-event, .jsonl span records)")
		metrics  = flag.Bool("metrics", false, "dump a Prometheus metrics snapshot to stderr at exit")
	)
	flag.Parse()
	var tracer *trace.Collector
	var rootSpan *trace.Span
	if *traceOut != "" {
		tracer = trace.NewCollector()
		rootSpan = tracer.StartSpan("run")
	}

	set, err := instrument.ParseSchemes(*scheme)
	if err != nil {
		fatal(err)
	}

	var f *minic.File
	name := *workload
	builtins := minic.DefaultBuiltins()
	var intrinsics map[string]interp.Intrinsic
	switch {
	case *workload == "ccrypt":
		f, err = minic.Parse("ccrypt.mc", workloads.CcryptSource)
		builtins = workloads.CcryptBuiltins()
		intrinsics = workloads.NewCcryptWorld(*seed).Intrinsics()
	case *workload == "bc":
		f, err = minic.Parse("bc.mc", workloads.BCSource)
	case *workload != "":
		var b workloads.Benchmark
		b, err = workloads.ByName(*workload)
		if err == nil {
			f, err = b.Parse()
		}
	case *file != "":
		name = *file
		var src []byte
		src, err = os.ReadFile(*file)
		if err == nil {
			f, err = minic.Parse(*file, string(src))
		}
	default:
		err = fmt.Errorf("need -file or -workload")
	}
	if err != nil {
		fatal(err)
	}

	rootSpan.SetAttr("workload", name)
	buildSpan := telemetry.StartSpan("run.build")
	buildChild := rootSpan.StartChild("run.build")
	prog, err := cfg.Build(f, builtins, &instrument.Schemes{Set: set})
	buildChild.End()
	buildSpan.End()
	if err != nil {
		fatal(err)
	}
	effDensity := 0.0
	if *sample {
		prog = instrument.Sample(prog, instrument.DefaultOptions())
		effDensity = *density
	}

	eng, ok := interp.EngineOf(*engine)
	if !ok {
		fatal(fmt.Errorf("unknown engine %q (want fused, compiled, or tree)", *engine))
	}
	telemetry.G(fmt.Sprintf("vm_engine{engine=%q}", eng)).Set(1)

	conf := interp.Config{
		Engine:        eng,
		Seed:          *seed,
		Density:       effDensity,
		CountdownSeed: *cdSeed,
		Intrinsics:    intrinsics,
		TraceCapacity: *traceCap,
		Profile:       *profile,
	}
	if *showOut {
		conf.Stdout = os.Stdout
	}
	// Compile-once lowering; the telemetry span exposes its cost next to
	// run.build / run.execute in the stage-timing summary.
	var code *interp.Compiled
	if eng != interp.EngineTree {
		compileSpan := telemetry.StartSpan("run.compile")
		code = interp.Compile(prog)
		compileSpan.End()
	}
	execSpan := telemetry.StartSpan("run.execute")
	execChild := rootSpan.StartChild("run.execute")
	var res interp.Result
	if code != nil {
		res = code.Run(conf)
	} else {
		res = interp.Run(prog, conf)
	}
	execChild.End()
	execSpan.End()
	telemetry.H("run_steps", telemetry.StepBuckets).Observe(float64(res.Steps))
	rep := workloads.ReportOf(name, uint64(*seed), res)

	fmt.Printf("\noutcome: %v  exit=%d  steps=%d  samples=%d\n",
		outcomeName(res), res.ExitCode, res.Steps, res.SamplesTaken)
	if res.Trap != nil {
		fmt.Printf("trap: %v\n", res.Trap)
	}
	nonzero := 0
	for _, c := range rep.Counters {
		if c != 0 {
			nonzero++
		}
	}
	fmt.Printf("report: %d counters, %d nonzero, %d bytes encoded\n",
		len(rep.Counters), nonzero, len(rep.Encode()))
	if len(rep.Trace) > 0 {
		fmt.Printf("trace (last %d sampled sites):", len(rep.Trace))
		for _, id := range rep.Trace {
			fmt.Printf(" %d", id)
		}
		fmt.Println()
	}

	if *profile {
		if res.Profile == nil {
			fatal(fmt.Errorf("interpreter returned no profile"))
		}
		fmt.Printf("\nVM overhead profile (%d steps):\n%s", res.Profile.Steps, res.Profile.Format())
		pf, err := os.Create(*profOut)
		if err != nil {
			fatal(err)
		}
		if err := res.Profile.WriteFolded(pf); err != nil {
			fatal(err)
		}
		if err := pf.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("folded flame stacks written to", *profOut)
	}

	if *out != "" {
		if err := os.WriteFile(*out, rep.Encode(), 0o644); err != nil {
			fatal(err)
		}
	}
	if *submit != "" {
		ctx := trace.NewContext(context.Background(), rootSpan)
		client := collect.NewClient(*submit)
		client.BatchSize = *batch
		if err := client.SubmitContext(ctx, rep); err != nil {
			fatal(err)
		}
		if err := client.Flush(ctx); err != nil {
			fatal(err)
		}
		fmt.Println("report submitted to", *submit)
	}
	if *metrics {
		_ = telemetry.Default.WritePrometheus(os.Stderr)
	}
	rootSpan.End()
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace spans to %s\n", tracer.Len(), *traceOut)
	}
	if res.Outcome == interp.OutcomeCrash {
		os.Exit(2)
	}
}

func outcomeName(res interp.Result) string {
	if res.Outcome == interp.OutcomeCrash {
		return "CRASH"
	}
	return "ok"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbi-run:", err)
	os.Exit(1)
}
