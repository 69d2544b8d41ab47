// cbi-analyze runs the paper's bug-isolation analyses end to end:
//
//	cbi-analyze -study ccrypt -runs 4000 -density 0.01    # §3.2 elimination
//	cbi-analyze -study bc -runs 2000 -density 0           # §3.3 regression
//
// A density of 0 uses unconditional instrumentation; positive densities
// apply the sampling transformation. With -submit, every fleet report is
// additionally POSTed to a running cbi-collect server, exercising the
// full remote ingest path; -trace-out records one distributed trace per
// fleet run (fleet.run → client.submit → server ingest, when combined
// with -submit) and writes them as Chrome trace-event JSON. Every run
// ends with a per-stage timing summary from the telemetry spans;
// -timing=false suppresses it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cbi/internal/collect"
	"cbi/internal/core"
	"cbi/internal/instrument"
	"cbi/internal/monitor"
	"cbi/internal/report"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
	"cbi/internal/workloads"
)

func main() {
	var (
		study    = flag.String("study", "ccrypt", "ccrypt | bc")
		reports  = flag.String("reports", "", "analyze a saved .cbr report file or directory instead of running a fleet")
		sitesOut = flag.String("sites-out", "", "write the study's site manifest (counter spans + predicate names, for `cbi-collect -sites`) to this file and exit")
		save     = flag.String("save", "", "after running the fleet, save its reports to this .cbr file")
		runs     = flag.Int("runs", 3000, "number of fuzzed runs")
		density  = flag.Float64("density", 1.0/100, "sampling density (0 = unconditional)")
		seed     = flag.Int64("seed", 42, "fleet seed")
		workers  = flag.Int("workers", 0, "concurrent fleet runs (0 = NumCPU; results are identical at any worker count)")
		batch    = flag.Int("batch", 1, "with -submit, buffer this many reports per POST to /reports (1 = one /report POST per run)")
		topK     = flag.Int("top", 5, "ranked predicates to show (bc)")
		submit   = flag.String("submit", "", "also submit every fleet report to this collection server base URL (ccrypt)")
		traceOut = flag.String("trace-out", "", "record one distributed trace per fleet run and write them to this file (.json Chrome trace-event, .jsonl span records)")
		timing   = flag.Bool("timing", true, "print the per-stage span timing summary")
		metrics  = flag.Bool("metrics", false, "dump a Prometheus metrics snapshot to stderr at exit")
	)
	flag.Parse()
	var tracer *trace.Collector
	if *traceOut != "" {
		tracer = trace.NewCollector()
		defer func() {
			if err := tracer.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "cbi-analyze: writing trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %d trace spans to %s\n", tracer.Len(), *traceOut)
		}()
	}
	defer func() {
		if *timing {
			if s := telemetry.Default.FormatSpanSummary(); s != "" {
				fmt.Printf("\n%s", s)
			}
		}
		if *metrics {
			_ = telemetry.Default.WritePrometheus(os.Stderr)
		}
	}()

	if *sitesOut != "" {
		writeSites(*study, *sitesOut)
		return
	}
	if *reports != "" {
		analyzeSaved(*study, *reports, *topK)
		return
	}
	switch *study {
	case "ccrypt":
		conf := core.CcryptStudyConfig{
			Runs: *runs, Density: *density, Seed: *seed,
			Workers: *workers, Tracer: tracer,
		}
		var client *collect.Client
		if *submit != "" {
			client = collect.NewClient(*submit)
			client.BatchSize = *batch
			conf.Submit = client.SubmitContext
		}
		s, err := core.RunCcryptStudyOpts(conf)
		if err != nil {
			fatal(err)
		}
		if client != nil {
			// Ship any reports still buffered by the batched client.
			if err := client.Flush(context.Background()); err != nil {
				fatal(err)
			}
		}
		if *save != "" {
			if err := s.DB.WriteFile(*save); err != nil {
				fatal(err)
			}
			fmt.Println("reports saved to", *save)
		}
		fmt.Printf("ccrypt: %d runs, %d crashes, %d counters\n\n", s.Runs, s.Crashes, s.Counts.Total)
		c := s.Counts
		fmt.Printf("elimination strategies (candidates retained):\n")
		fmt.Printf("  universal falsehood:        %5d\n", c.UniversalFalsehood)
		fmt.Printf("  lack of failing coverage:   %5d\n", c.LackOfFailingCoverage)
		fmt.Printf("  lack of failing example:    %5d\n", c.LackOfFailingExample)
		fmt.Printf("  successful counterexample:  %5d\n", c.SuccessfulCounterexample)
		fmt.Printf("  UF ∧ SC (combined):         %5d\n", c.UFandSC)
		fmt.Printf("  LFE ∧ SC:                   %5d\n", c.LFEandSC)
		fmt.Printf("  LFC ∧ SC:                   %5d\n\n", c.LFCandSC)
		fmt.Printf("surviving predicates:\n%s", core.FormatSurvivors(s.Survivors))
		fmt.Printf("\nimportance ranking (2005 follow-up scoring):\n")
		for i, p := range s.ImportanceRanking(*topK) {
			fmt.Printf("%2d. importance=%.3f increase=%.3f  %s\n", i+1, p.Importance, p.Increase, p.Name)
		}
	case "bc":
		s, err := core.RunBCStudy(core.BCStudyConfig{
			Runs: *runs, Density: *density, Seed: *seed, TopK: *topK,
			Workers: *workers, Tracer: tracer,
		})
		if err != nil {
			fatal(err)
		}
		if *save != "" {
			if err := s.DB.WriteFile(*save); err != nil {
				fatal(err)
			}
			fmt.Println("reports saved to", *save)
		}
		fmt.Printf("bc: %d runs, %d crashes\n", s.Runs, s.Crashes)
		fmt.Printf("features: %d raw, %d after universal-falsehood elimination\n", s.RawFeatures, s.UsedFeatures)
		fmt.Printf("lambda (cross-validated): %g   test accuracy: %.3f\n", s.Lambda, s.TestAccuracy)
		fmt.Printf("buggy line: bc.mc:%d   smoking-gun rank: %d\n\n", s.BuggyLine, s.SmokingGunRank)
		fmt.Printf("top crash predictors:\n%s", core.FormatTop(s.Top))
		fmt.Printf("\n%d of the top %d point at the more_arrays bug line\n", s.TopPointAtBug(), len(s.Top))
		fmt.Printf("\nimportance ranking (2005 follow-up scoring):\n")
		for i, p := range s.ImportanceRanking(*topK) {
			fmt.Printf("%2d. importance=%.3f increase=%.3f  %s\n", i+1, p.Importance, p.Increase, p.Name)
		}
	default:
		fatal(fmt.Errorf("unknown study %q", *study))
	}
}

// writeSites instruments the study program and writes its site manifest
// — counter spans plus predicate names — for a standalone cbi-collect
// to score live rankings with full context (-sites). The counter space
// is fixed by the workload + scheme, so the manifest lines up with any
// fleet of the same study.
func writeSites(study, path string) {
	built := buildStudy(study)
	man := monitor.ManifestOf(study, built.Program)
	if err := man.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: site manifest (%d sites, %d counters) written to %s\n",
		study, len(man.Sites), man.NumCounters, path)
}

// buildStudy instruments a study's workload with its canonical scheme.
func buildStudy(study string) *workloads.Built {
	var built *workloads.Built
	var err error
	switch study {
	case "ccrypt":
		built, err = workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, false)
	case "bc":
		built, err = workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
	default:
		fatal(fmt.Errorf("unknown study %q", study))
	}
	if err != nil {
		fatal(err)
	}
	return built
}

// analyzeSaved reloads persisted reports and re-runs the study's
// analysis against a rebuilt program (the counter space is fixed by the
// workload + scheme, so saved reports line up with a fresh build).
func analyzeSaved(study, path string, topK int) {
	built := buildStudy(study)
	info, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	var db *report.DB
	if info.IsDir() {
		db, err = report.LoadDir(path, study, built.Program.NumCounters)
	} else {
		db, err = report.LoadFile(path, study, built.Program.NumCounters)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: loaded %d reports (%d crashes) from %s\n\n", study, db.Len(), len(db.Failures()), path)
	fmt.Println("importance ranking:")
	for i, p := range core.ImportanceRanking(built.Program, db, topK) {
		fmt.Printf("%2d. importance=%.3f increase=%.3f  %s\n", i+1, p.Importance, p.Increase, p.Name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbi-analyze:", err)
	os.Exit(1)
}
