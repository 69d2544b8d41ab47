// cbi-bench regenerates every table and figure of the paper's evaluation:
//
//	cbi-bench table1       # static metrics (Table 1)
//	cbi-bench table2       # overhead vs density (Table 2), wall + steps
//	cbi-bench selective    # statically selective sampling (§3.1.2)
//	cbi-bench confidence   # runs-needed arithmetic (§3.1.3)
//	cbi-bench ccrypt       # elimination counts (§3.2.3)
//	cbi-bench fig2         # progressive elimination (Figure 2)
//	cbi-bench bc           # regression ranking (§3.3.3)
//	cbi-bench fig4         # bc overhead vs density (Figure 4)
//	cbi-bench adaptive     # multi-round adaptive isolation (§3.1.2 ext.)
//	cbi-bench ablation     # design-choice ablations (DESIGN.md §5)
//	cbi-bench profile      # where Table 2's cycles go, per path kind
//	cbi-bench all          # all eleven, table1 through profile (the default)
package main

import (
	"flag"
	"fmt"
	"os"

	"cbi/internal/core"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/sampler"
	"cbi/internal/stats"
	"cbi/internal/workloads"
)

var (
	seed      = flag.Int64("seed", 42, "experiment seed")
	runs      = flag.Int("runs", 3000, "fleet size for ccrypt/fig2")
	bcRuns    = flag.Int("bc-runs", 1500, "fleet size for bc")
	density   = flag.Float64("density", 1.0/100, "sampling density for ccrypt")
	bcDensity = flag.Float64("bc-density", 1.0/10, "sampling density for bc (scaled to the workload's dynamic site count; see EXPERIMENTS.md)")
	wall      = flag.Bool("wall", true, "also report wall-clock ratios in table2/fig4")
	workers   = flag.Int("workers", 0, "concurrent runs in the ccrypt, fig2, bc and adaptive studies (0 = NumCPU; results are identical at any worker count)")
)

func main() {
	flag.Parse()
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	cmds := map[string]func() error{
		"adaptive":   adaptive,
		"table1":     table1,
		"table2":     table2,
		"selective":  selective,
		"confidence": confidence,
		"ccrypt":     ccrypt,
		"fig2":       fig2,
		"bc":         bc,
		"fig4":       fig4,
		"ablation":   ablation,
		"profile":    profile,
	}
	if cmd == "all" {
		for _, name := range []string{"table1", "table2", "selective", "confidence", "ccrypt", "fig2", "bc", "fig4", "adaptive", "ablation", "profile"} {
			if err := cmds[name](); err != nil {
				fatal(err)
			}
		}
		return
	}
	fn, ok := cmds[cmd]
	if !ok {
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
	if err := fn(); err != nil {
		fatal(err)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func table1() error {
	header("Table 1: static metrics for benchmarks (bounds scheme)")
	rows, err := core.Table1()
	if err != nil {
		return err
	}
	fmt.Print(core.FormatTable1(rows))
	return nil
}

func table2() error {
	header("Table 2: relative performance, unconditional vs sampled (VM-step ratios)")
	rows, err := core.Table2(core.OverheadConfig{Seed: *seed, Wall: *wall})
	if err != nil {
		return err
	}
	fmt.Print(core.FormatOverheadRows(rows, core.Table2Densities))
	if *wall {
		fmt.Println("\nwall-clock ratios:")
		for _, r := range rows {
			fmt.Printf("%-10s always=%.2f", r.Benchmark, r.WallAlways)
			for i, v := range r.WallSampled {
				fmt.Printf(" 1/%g=%.2f", 1/core.Table2Densities[i], v)
			}
			fmt.Println()
		}
	}
	return nil
}

func selective() error {
	header("§3.1.2: statically selective sampling (single-function builds, 1/1000)")
	fmt.Printf("%-10s %10s %14s %14s %6s\n", "benchmark", "full grow", "selective grow", "worst overhead", "funcs")
	for _, b := range workloads.All() {
		res, err := core.Selective(b.Name, 1.0/1000, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %9.2fx %13.2fx %13.3fx %6d\n",
			res.Benchmark, res.FullGrowth, res.AvgSelectiveGrowth, res.WorstOverhead, res.FuncsMeasured)
	}
	return nil
}

func confidence() error {
	header("§3.1.3: runs needed to observe rare events")
	fmt.Printf("%10s %10s %10s %12s\n", "confidence", "event rate", "density", "runs needed")
	for _, r := range core.ConfidenceTable() {
		fmt.Printf("%9.0f%% %10s %10s %12d\n",
			r.Confidence*100, frac(r.EventRate), frac(r.Density), r.Runs)
	}
	fmt.Printf("\n(paper: 230,258 runs for the first row; 4,605,168 for the second)\n")
	return nil
}

func frac(f float64) string { return fmt.Sprintf("1/%g", 1/f) }

func ccrypt() error {
	header(fmt.Sprintf("§3.2.3: ccrypt predicate elimination (%d runs @ %s sampling)", *runs, frac(*density)))
	s, err := core.RunCcryptStudyOpts(core.CcryptStudyConfig{
		Runs: *runs, Density: *density, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		return err
	}
	c := s.Counts
	fmt.Printf("runs: %d   crashes: %d   counters: %d\n\n", s.Runs, s.Crashes, c.Total)
	fmt.Printf("universal falsehood:        %5d candidates\n", c.UniversalFalsehood)
	fmt.Printf("lack of failing coverage:   %5d candidates\n", c.LackOfFailingCoverage)
	fmt.Printf("lack of failing example:    %5d candidates\n", c.LackOfFailingExample)
	fmt.Printf("successful counterexample:  %5d candidates\n", c.SuccessfulCounterexample)
	fmt.Printf("UF ∧ SC:                    %5d candidates\n", c.UFandSC)
	fmt.Printf("LFE ∧ SC:                   %5d candidates\n", c.LFEandSC)
	fmt.Printf("LFC ∧ SC:                   %5d candidates\n\n", c.LFCandSC)
	fmt.Printf("survivors:\n%s", core.FormatSurvivors(s.Survivors))
	return nil
}

func fig2() error {
	header("Figure 2: progressive elimination by successful counterexample")
	s, err := core.RunCcryptStudyOpts(core.CcryptStudyConfig{
		Runs: *runs, Density: *density, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		return err
	}
	nSucc := len(s.DB.Successes())
	sizes := []int{50, 100, 200, 400, 800, 1200, 1600, 2000, 2400, nSucc}
	var valid []int
	for _, sz := range sizes {
		if sz <= nSucc {
			valid = append(valid, sz)
		}
	}
	points := s.Fig2Points(valid, 100, *seed+1)
	fmt.Printf("%12s %12s %10s\n", "succ. runs", "mean left", "std dev")
	for _, p := range points {
		fmt.Printf("%12d %12.1f %10.2f\n", p.Runs, p.Mean, p.StdDev)
	}
	return nil
}

func bc() error {
	header(fmt.Sprintf("§3.3.3: bc statistical debugging (%d runs @ %s sampling)", *bcRuns, frac(*bcDensity)))
	s, err := core.RunBCStudy(core.BCStudyConfig{Runs: *bcRuns, Density: *bcDensity, Seed: *seed, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Printf("runs: %d   crashes: %d\n", s.Runs, s.Crashes)
	fmt.Printf("features: %d raw, %d used after universal-falsehood elimination\n", s.RawFeatures, s.UsedFeatures)
	fmt.Printf("lambda: %g   test accuracy: %.3f\n", s.Lambda, s.TestAccuracy)
	fmt.Printf("buggy line: bc.mc:%d (paper: storage.c:176)\n\n", s.BuggyLine)
	fmt.Printf("top crash predictors:\n%s\n", core.FormatTop(s.Top))
	fmt.Printf("%d of top %d point at the buggy line; smoking-gun 'indx > a_count' rank: %d (paper: 240)\n",
		s.TopPointAtBug(), len(s.Top), s.SmokingGunRank)
	return nil
}

func fig4() error {
	header("Figure 4: bc relative performance vs sampling density (scalar-pairs)")
	row, err := core.Fig4(core.OverheadConfig{Seed: *seed, Wall: *wall,
		Densities: []float64{1.0 / 100, 1.0 / 1000, 1.0 / 10000, 1.0 / 1000000}})
	if err != nil {
		return err
	}
	fmt.Printf("unconditional: %.3fx\n", row.Always)
	for i, d := range []float64{1.0 / 100, 1.0 / 1000, 1.0 / 10000, 1.0 / 1000000} {
		fmt.Printf("density %-10s %.3fx\n", frac(d)+":", row.Sampled[i])
	}
	fmt.Println("(paper: 1.13x unconditional, 1.06x @1/100, 1.005x @1/1000, floor below)")
	return nil
}

func adaptive() error {
	header("Adaptive isolation: sites removed round by round (§3.1.2 extension)")
	res, err := core.RunAdaptiveCcrypt(core.AdaptiveConfig{
		Rounds: 3, RunsPerRound: *runs / 2, StartDensity: *density, Seed: *seed,
		Workers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%6s %6s %10s %6s %8s %11s\n", "round", "sites", "density", "runs", "crashes", "candidates")
	for _, r := range res.Rounds {
		fmt.Printf("%6d %6d %10s %6d %8d %11d\n", r.Round, r.Sites, frac(r.Density), r.Runs, r.Crashes, r.Candidates)
	}
	fmt.Println("\nfinal survivors:")
	fmt.Print(core.FormatSurvivors(res.Survivors))
	return nil
}

func ablation() error {
	header("Ablations: transformation design choices (compress, bounds, 1/100)")
	variants := []struct {
		name string
		opt  instrument.Options
	}{
		{"paper default", instrument.DefaultOptions()},
		{"no coalescing", instrument.Options{LocalizeCountdown: true}},
		{"global countdown", instrument.Options{CoalesceDecrements: true}},
		{"separate compilation", instrument.Options{CoalesceDecrements: true, LocalizeCountdown: true, SeparateCompilation: true}},
		{"check per site", instrument.Options{LocalizeCountdown: true, CheckPerSite: true}},
	}
	built, err := workloads.BuildBenchmark("compress", instrument.SchemeSet{}, false)
	if err != nil {
		return err
	}
	baseRes := interp.Run(built.Program, interp.Config{Seed: *seed})
	baseSteps := float64(baseRes.Steps)

	inst, err := workloads.BuildBenchmark("compress", instrument.SchemeSet{Bounds: true}, false)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %12s\n", "variant", "steps ratio", "code size")
	for _, v := range variants {
		sp := instrument.Sample(inst.Program, v.opt)
		var total float64
		const reps = 5
		for i := 0; i < reps; i++ {
			res := interp.Run(sp, interp.Config{Seed: *seed, Density: 1.0 / 100, CountdownSeed: *seed + int64(i)})
			if res.Outcome != interp.OutcomeOK {
				return fmt.Errorf("ablation %s: crashed: %v", v.name, res.Trap)
			}
			total += float64(res.Steps)
		}
		fmt.Printf("%-22s %11.3fx %12d\n", v.name, total/reps/baseSteps, instrument.CodeSize(sp))
	}

	// Geometric vs periodic sampling fairness (§2.1/§4).
	fmt.Println("\nsampling fairness (two sites in a loop, 1/50):")
	fair := fairness()
	fmt.Printf("  periodic:  site counts %v (starved: %v)\n", fair[0], fair[0][0] == 0 || fair[0][1] == 0)
	fmt.Printf("  geometric: site counts %v (chi^2 %.1f)\n", fair[1], stats.ChiSquareUniform(fair[1][:]))
	return nil
}

// profile explains Table 2's cycles: it reruns each benchmark under the
// bounds scheme — unconditional and sampled at 1/100 — with the VM
// overhead profiler on, and attributes every interpreter step to
// baseline work, fast-path countdown decrements, slow-path site
// instrumentation, or acquire-threshold checks. Per-function detail for
// any one benchmark is available via cbi-run -profile.
func profile() error {
	header("Where Table 2's cycles go (bounds scheme, per path kind)")
	fmt.Printf("%-10s %-14s %12s %10s %10s %10s %12s %6s\n",
		"benchmark", "variant", "baseline", "fast-dec", "slow-site", "threshold", "total", "ovh%")
	for _, b := range workloads.All() {
		for _, v := range []struct {
			name    string
			sampled bool
			density float64
		}{
			{"unconditional", false, 0},
			{"sampled 1/100", true, 1.0 / 100},
		} {
			built, err := workloads.BuildBenchmark(b.Name, instrument.SchemeSet{Bounds: true}, v.sampled)
			if err != nil {
				return fmt.Errorf("profile %s: %w", b.Name, err)
			}
			res := interp.Run(built.Program, interp.Config{
				Seed: *seed, Density: v.density, CountdownSeed: *seed + 1, Profile: true,
			})
			if res.Outcome != interp.OutcomeOK {
				return fmt.Errorf("profile %s (%s): crashed: %v", b.Name, v.name, res.Trap)
			}
			totals := res.Profile.Totals()
			overhead := totals[interp.PathFastDec] + totals[interp.PathSlowSite] + totals[interp.PathThreshold]
			fmt.Printf("%-10s %-14s %12d %10d %10d %10d %12d %5.1f%%\n",
				b.Name, v.name,
				totals[interp.PathBaseline], totals[interp.PathFastDec],
				totals[interp.PathSlowSite], totals[interp.PathThreshold],
				res.Profile.Steps, 100*float64(overhead)/float64(res.Profile.Steps))
		}
	}
	fmt.Println("\n(per-function breakdowns and folded flame stacks: cbi-run -profile)")
	return nil
}

// fairness reproduces the §2.1 pathology with the real samplers.
func fairness() [2][2]int64 {
	simulate := func(src sampler.Source) [2]int64 {
		var hits [2]int64
		cd := src.Next()
		for iter := 0; iter < 100000; iter++ {
			for site := 0; site < 2; site++ {
				cd--
				if cd == 0 {
					hits[site]++
					cd = src.Next()
				}
			}
		}
		return hits
	}
	return [2][2]int64{
		simulate(&sampler.Periodic{Period: 50}),
		simulate(sampler.NewGeometric(7, 1.0/50)),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbi-bench:", err)
	os.Exit(1)
}
