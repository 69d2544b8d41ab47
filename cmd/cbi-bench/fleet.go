package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"cbi/internal/collect"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/report"
	"cbi/internal/workloads"
)

// fleetBenchDoc is the JSON document the fleet subcommand writes to
// -bench-out: measured serial-vs-parallel fleet wall time and
// single-vs-batched ingest throughput, so CI can archive the numbers.
type fleetBenchDoc struct {
	Fleet struct {
		Workload        string  `json:"workload"`
		Runs            int     `json:"runs"`
		Workers         int     `json:"workers"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Speedup         float64 `json:"speedup"`
		Identical       bool    `json:"identical"`
	} `json:"fleet"`
	Ingest struct {
		Reports             int     `json:"reports"`
		BatchSize           int     `json:"batch_size"`
		SingleSeconds       float64 `json:"single_seconds"`
		BatchSeconds        float64 `json:"batch_seconds"`
		SingleReportsPerSec float64 `json:"single_reports_per_sec"`
		BatchReportsPerSec  float64 `json:"batch_reports_per_sec"`
		Speedup             float64 `json:"speedup"`
	} `json:"ingest"`
	// Engines holds one row per (workload, engine): the bytecode VMs
	// (fused and switch-dispatch) against the tree walker on the
	// Table-2 benchmarks, with per-run allocation counts so frame-pooling
	// regressions are visible.
	Engines []engineBenchRow `json:"engines"`
	// FusedSpeedupVsSwitch is the geometric-mean steps/s advantage of
	// the fused engine over the switch-dispatch engine across
	// the workloads above; gated at >= 1.2 both here and in CI.
	FusedSpeedupVsSwitch float64 `json:"fused_speedup_vs_switch"`
	// OpHistogram is the fused engine's per-opcode dispatch mix across
	// one sampled run of every workload, heaviest first — the data
	// future fusion candidates are chosen from.
	OpHistogram []opCountRow `json:"op_histogram"`
}

type opCountRow struct {
	Op    string  `json:"op"`
	Count uint64  `json:"count"`
	Share float64 `json:"share"`
}

type engineBenchRow struct {
	Workload     string  `json:"workload"`
	Engine       string  `json:"engine"`
	Runs         int     `json:"runs"`
	Steps        uint64  `json:"steps"`
	Seconds      float64 `json:"seconds"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
	// Speedup is steps/sec relative to the tree engine on the same
	// workload (1.0 on the tree rows themselves).
	Speedup float64 `json:"speedup"`
	// SpeedupVsSwitch is, on fused rows, steps/sec relative to the
	// switch-dispatch compiled engine on the same workload.
	SpeedupVsSwitch float64 `json:"speedup_vs_switch,omitempty"`
	// Identical reports whether every run's report and step count matched
	// the tree engine bit for bit.
	Identical bool `json:"identical"`
}

// fleet measures the two perf paths this repo parallelizes: fleet
// execution (worker pool vs serial loop, asserting bit-identical
// reports) and collector ingest (one POST per report vs batched
// /reports). Results print as a table and land in -bench-out.
func fleet() error {
	header("Fleet scaling: parallel execution and batched ingest")
	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		return err
	}
	conf := workloads.FleetConfig{Runs: *runs, Density: *density, SeedBase: *seed}

	var doc fleetBenchDoc
	conf.Workers = 1
	t0 := time.Now()
	serialDB, err := workloads.CcryptFleet(built.Program, conf)
	if err != nil {
		return err
	}
	serialSec := time.Since(t0).Seconds()

	conf.Workers = w
	t0 = time.Now()
	parallelDB, err := workloads.CcryptFleet(built.Program, conf)
	if err != nil {
		return err
	}
	parallelSec := time.Since(t0).Seconds()

	doc.Fleet.Workload = "ccrypt"
	doc.Fleet.Runs = *runs
	doc.Fleet.Workers = w
	doc.Fleet.SerialSeconds = serialSec
	doc.Fleet.ParallelSeconds = parallelSec
	doc.Fleet.Speedup = serialSec / parallelSec
	doc.Fleet.Identical = sameReports(serialDB, parallelDB)
	fmt.Printf("fleet (ccrypt, %d runs @ %s): serial %.2fs, %d workers %.2fs — %.2fx speedup, identical=%v\n",
		*runs, frac(*density), serialSec, w, parallelSec, doc.Fleet.Speedup, doc.Fleet.Identical)
	if !doc.Fleet.Identical {
		return fmt.Errorf("fleet: parallel reports differ from serial baseline")
	}

	// Ingest: replay the serial fleet's reports against a live collector,
	// once as per-report POSTs to /report, once batched to /reports.
	srv := collect.NewServer("ccrypt", built.Program.NumCounters, collect.AggregateOnly)
	srv.ExposeTelemetry = false
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Stop()
	base := "http://" + bound
	reps := serialDB.Reports
	ctx := context.Background()

	single := collect.NewClient(base)
	t0 = time.Now()
	for _, rep := range reps {
		if err := single.SubmitContext(ctx, rep); err != nil {
			return err
		}
	}
	singleSec := time.Since(t0).Seconds()

	const batchSize = 64
	batched := collect.NewClient(base)
	batched.BatchSize = batchSize
	t0 = time.Now()
	for _, rep := range reps {
		if err := batched.SubmitContext(ctx, rep); err != nil {
			return err
		}
	}
	if err := batched.Flush(ctx); err != nil {
		return err
	}
	batchSec := time.Since(t0).Seconds()

	doc.Ingest.Reports = len(reps)
	doc.Ingest.BatchSize = batchSize
	doc.Ingest.SingleSeconds = singleSec
	doc.Ingest.BatchSeconds = batchSec
	doc.Ingest.SingleReportsPerSec = float64(len(reps)) / singleSec
	doc.Ingest.BatchReportsPerSec = float64(len(reps)) / batchSec
	doc.Ingest.Speedup = singleSec / batchSec
	fmt.Printf("ingest (%d reports): per-report %.2fs (%.0f rep/s), batch=%d %.2fs (%.0f rep/s) — %.2fx speedup\n",
		len(reps), singleSec, doc.Ingest.SingleReportsPerSec,
		batchSize, batchSec, doc.Ingest.BatchReportsPerSec, doc.Ingest.Speedup)

	agg := srv.Aggregate()
	if agg.Runs != 2*len(reps) {
		return fmt.Errorf("fleet: collector folded %d runs, want %d", agg.Runs, 2*len(reps))
	}

	if err := engineRows(&doc); err != nil {
		return err
	}

	return writeBenchDoc("BENCH_fleet.json", &doc)
}

// engineRows races the bytecode VMs (switch-dispatch and the
// fused engine) against the tree walker on every Table-2
// workload (bounds scheme, sampled): steps/sec throughput, allocations
// per run, and a bit-identical-reports check per run pair. It also
// collects the fused engine's per-opcode dispatch histogram and gates
// the fused-vs-switch speedup at >= 1.2 (geometric mean).
func engineRows(doc *fleetBenchDoc) error {
	const perEngine = 7
	fmt.Printf("\nengines (Table-2 workloads, bounds scheme sampled @ %s, %d runs each):\n",
		frac(*density), perEngine)
	fmt.Printf("%-10s %10s %14s %14s %12s %9s %9s %10s\n",
		"workload", "engine", "steps/sec", "allocs/run", "bytes/run", "vs-tree", "vs-switch", "identical")
	opTotals := map[string]uint64{}
	logGeo := 0.0
	nGeo := 0
	for _, b := range workloads.All() {
		built, err := workloads.BuildBenchmark(b.Name, instrument.SchemeSet{Bounds: true}, true)
		if err != nil {
			return fmt.Errorf("engines %s: %w", b.Name, err)
		}
		// One immutable Compiled shared by both bytecode engines.
		code := interp.Compile(built.Program)
		confFor := func(eng interp.Engine, i int) interp.Config {
			return interp.Config{
				Engine:        eng,
				Seed:          *seed + int64(i),
				Density:       *density,
				CountdownSeed: *seed + int64(i)*17,
			}
		}
		// Reps are interleaved across engines (tree, switch, fused, then
		// again) and timed individually; each row reports its best rep's
		// throughput. Scheduler or GC hiccups only ever slow a rep down,
		// so max-over-reps is the noise-robust estimator, and interleaving
		// keeps a mid-bench slowdown from penalizing one engine wholesale.
		engines := []interp.Engine{interp.EngineTree, interp.EngineCompiled, interp.EngineFused}
		rowFor := make([]engineBenchRow, len(engines))
		resFor := make([][]interp.Result, len(engines))
		var ms0, ms1 runtime.MemStats
		for i := 0; i < perEngine; i++ {
			for e, eng := range engines {
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				var res interp.Result
				if eng == interp.EngineTree {
					res = interp.Run(built.Program, confFor(eng, i))
				} else {
					res = code.Run(confFor(eng, i))
				}
				sec := time.Since(t0).Seconds()
				runtime.ReadMemStats(&ms1)
				if res.Outcome != interp.OutcomeOK {
					return fmt.Errorf("engines %s (%s): crashed: %v", b.Name, eng, res.Trap)
				}
				row := &rowFor[e]
				row.Seconds += sec
				row.Steps += res.Steps
				if sps := float64(res.Steps) / sec; sps > row.StepsPerSec {
					row.StepsPerSec = sps
				}
				row.AllocsPerRun += float64(ms1.Mallocs-ms0.Mallocs) / perEngine
				row.BytesPerRun += float64(ms1.TotalAlloc-ms0.TotalAlloc) / perEngine
				resFor[e] = append(resFor[e], res)
			}
		}
		var rows []engineBenchRow
		treeRes := resFor[0]
		var switchStepsPerSec float64
		for e, eng := range engines {
			row := rowFor[e]
			row.Workload = b.Name
			row.Engine = eng.String()
			row.Runs = perEngine
			row.Speedup = row.StepsPerSec / rowFor[0].StepsPerSec
			row.Identical = true
			for i := range treeRes {
				tr := workloads.ReportOf(b.Name, uint64(i), treeRes[i])
				er := workloads.ReportOf(b.Name, uint64(i), resFor[e][i])
				if !bytes.Equal(tr.Encode(), er.Encode()) || treeRes[i].Steps != resFor[e][i].Steps {
					row.Identical = false
				}
			}
			switch eng {
			case interp.EngineCompiled:
				switchStepsPerSec = row.StepsPerSec
			case interp.EngineFused:
				row.SpeedupVsSwitch = row.StepsPerSec / switchStepsPerSec
				logGeo += math.Log(row.SpeedupVsSwitch)
				nGeo++
			}
			rows = append(rows, row)
		}
		for _, row := range rows {
			vsSwitch := "-"
			if row.SpeedupVsSwitch > 0 {
				vsSwitch = fmt.Sprintf("%.2fx", row.SpeedupVsSwitch)
			}
			fmt.Printf("%-10s %10s %14.0f %14.0f %12.0f %8.2fx %9s %10v\n",
				row.Workload, row.Engine, row.StepsPerSec, row.AllocsPerRun,
				row.BytesPerRun, row.Speedup, vsSwitch, row.Identical)
			if !row.Identical {
				return fmt.Errorf("engines %s: %s reports differ from tree baseline", b.Name, row.Engine)
			}
		}
		doc.Engines = append(doc.Engines, rows...)

		// Dispatch histogram: one extra fused run with counting on, so
		// the measured rows above stay free of the counting overhead.
		hconf := confFor(interp.EngineFused, 0)
		hconf.CountOps = true
		hres := code.Run(hconf)
		for op, n := range hres.OpCounts {
			opTotals[op] += n
		}
	}

	var totalDispatch uint64
	for _, n := range opTotals {
		totalDispatch += n
	}
	for op, n := range opTotals {
		doc.OpHistogram = append(doc.OpHistogram, opCountRow{
			Op: op, Count: n, Share: float64(n) / float64(totalDispatch),
		})
	}
	sort.Slice(doc.OpHistogram, func(i, j int) bool {
		return doc.OpHistogram[i].Count > doc.OpHistogram[j].Count
	})
	fmt.Printf("\nfused-engine dispatch histogram (top 10 of %d ops, %d dispatches):\n",
		len(doc.OpHistogram), totalDispatch)
	for i, row := range doc.OpHistogram {
		if i == 10 {
			break
		}
		fmt.Printf("  %-20s %12d  %5.1f%%\n", row.Op, row.Count, 100*row.Share)
	}

	doc.FusedSpeedupVsSwitch = math.Exp(logGeo / float64(nGeo))
	fmt.Printf("\nfused vs switch-dispatch: %.2fx steps/s (geomean over %d workloads; gate >= 1.20x)\n",
		doc.FusedSpeedupVsSwitch, nGeo)
	if doc.FusedSpeedupVsSwitch < 1.2 {
		return fmt.Errorf("engines: fused speedup %.3fx below the 1.2x gate", doc.FusedSpeedupVsSwitch)
	}
	return nil
}

// sameReports reports whether two fleet DBs hold byte-identical reports
// in the same order.
func sameReports(a, b *report.DB) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Reports {
		ae, be := a.Reports[i].Encode(), b.Reports[i].Encode()
		if len(ae) != len(be) {
			return false
		}
		for j := range ae {
			if ae[j] != be[j] {
				return false
			}
		}
	}
	return true
}
