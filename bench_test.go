package cbi_test

// One benchmark per table and figure of the paper's evaluation except
// Table 2, plus ablation benches for the transformation's design
// choices. Run with:
//
//	go test -bench=. -benchmem
//
// Table 2's wall-clock ratios are bench/'s table2_vm workload (medians
// and an oracle per cell); the ratios between BenchmarkFig4BCOverhead's
// sub-benchmarks are the measured analogue of Figure 4. cmd/cbi-bench
// prints both as formatted tables.

import (
	"sync"
	"testing"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/logreg"
	"cbi/internal/cfg"
	"cbi/internal/core"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/report"
	"cbi/internal/sampler"
	"cbi/internal/stats"
	"cbi/internal/workloads"
)

// ----------------------------------------------------------------------------
// Table 1

func BenchmarkTable1StaticMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 13 {
			b.Fatal("rows")
		}
	}
}

// ----------------------------------------------------------------------------
// §3.1.2 selective sampling

func BenchmarkSelectiveSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Selective("compress", 1.0/1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.FuncsMeasured == 0 {
			b.Fatal("no functions")
		}
	}
}

// ----------------------------------------------------------------------------
// §3.1.3 confidence arithmetic

func BenchmarkConfidenceTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.ConfidenceTable()
		if rows[0].Runs != 230258 {
			b.Fatal("paper value")
		}
	}
}

// ----------------------------------------------------------------------------
// §3.2 / Figure 2: ccrypt

var (
	ccryptOnce  sync.Once
	ccryptStudy *core.CcryptStudy
	ccryptErr   error
)

func ccryptFleet(b *testing.B) *core.CcryptStudy {
	ccryptOnce.Do(func() {
		ccryptStudy, ccryptErr = core.RunCcryptStudy(2000, 1.0/100, 42)
	})
	if ccryptErr != nil {
		b.Fatal(ccryptErr)
	}
	return ccryptStudy
}

func BenchmarkCcryptElimination(b *testing.B) {
	study := ccryptFleet(b)
	spans := make([]elim.SiteSpan, 0, len(study.Program.Sites))
	for _, s := range study.Program.Sites {
		spans = append(spans, elim.SiteSpan{Base: s.CounterBase, Len: s.NumCounters})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := report.NewAggregate("ccrypt", study.Program.NumCounters)
		if err := agg.FromDB(study.DB); err != nil {
			b.Fatal(err)
		}
		counts := elim.Summarize(agg, spans)
		if counts.UFandSC == 0 {
			b.Fatal("no survivors")
		}
	}
}

func BenchmarkFig2ProgressiveElimination(b *testing.B) {
	study := ccryptFleet(b)
	sizes := []int{50, 200, 800, len(study.DB.Successes())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := study.Fig2Points(sizes, 20, int64(i))
		if len(points) != len(sizes) {
			b.Fatal("points")
		}
	}
}

// ----------------------------------------------------------------------------
// §3.3: bc regression training

var (
	bcOnce sync.Once
	bcDB   *report.DB
	bcKeep []bool
	bcErr  error
)

func bcFleet(b *testing.B) (*report.DB, []bool) {
	bcOnce.Do(func() {
		built, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
		if err != nil {
			bcErr = err
			return
		}
		bcDB, bcErr = workloads.BCFleet(built.Program, workloads.FleetConfig{Runs: 500, SeedBase: 11})
		if bcErr != nil {
			return
		}
		agg := report.NewAggregate("bc", built.Program.NumCounters)
		if err := agg.FromDB(bcDB); err != nil {
			bcErr = err
			return
		}
		bcKeep = elim.UniversalFalsehood(agg)
	})
	if bcErr != nil {
		b.Fatal(bcErr)
	}
	return bcDB, bcKeep
}

func BenchmarkBCRegressionTraining(b *testing.B) {
	db, keep := bcFleet(b)
	ds := logreg.BuildSparseDataset(db.Reports, keep)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := logreg.TrainSparse(ds, logreg.TrainConfig{Lambda: 0.1, StepSize: 1e-2, Epochs: 10, Seed: int64(i)})
		if len(m.TopFeatures(5)) == 0 {
			b.Fatal("no features")
		}
	}
}

// ----------------------------------------------------------------------------
// Figure 4: bc overhead

func BenchmarkFig4BCOverhead(b *testing.B) {
	// seed 1 is a non-crashing bc input (verified in setup).
	var seed int64
	base, err := workloads.BuildBC(instrument.SchemeSet{}, false)
	if err != nil {
		b.Fatal(err)
	}
	for seed = 1; seed < 50; seed++ {
		if interp.Run(base.Program, interp.Config{Seed: seed}).Outcome == interp.OutcomeOK {
			break
		}
	}
	uncond, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
	if err != nil {
		b.Fatal(err)
	}
	sampled, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		built   *workloads.Built
		density float64
	}{
		{"baseline", base, 0},
		{"always", uncond, 0},
		{"d100", sampled, 1.0 / 100},
		{"d1000", sampled, 1.0 / 1000},
		{"d1e6", sampled, 1.0 / 1e6},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := interp.Run(c.built.Program, interp.Config{
					Seed: seed, Density: c.density, CountdownSeed: int64(i),
				})
				if res.Outcome != interp.OutcomeOK {
					b.Fatalf("crash: %v", res.Trap)
				}
			}
		})
	}
}

// ----------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

func BenchmarkAblationTransformVariants(b *testing.B) {
	inst, err := workloads.BuildBenchmark("compress", instrument.SchemeSet{Bounds: true}, false)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opt  instrument.Options
	}{
		{"default", instrument.DefaultOptions()},
		{"nocoalesce", instrument.Options{LocalizeCountdown: true}},
		{"global", instrument.Options{CoalesceDecrements: true}},
		{"separate", instrument.Options{CoalesceDecrements: true, LocalizeCountdown: true, SeparateCompilation: true}},
		{"persite", instrument.Options{LocalizeCountdown: true, CheckPerSite: true}},
	}
	for _, v := range variants {
		sp := instrument.Sample(inst.Program, v.opt)
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := interp.Run(sp, interp.Config{Seed: 1, Density: 1.0 / 100, CountdownSeed: int64(i)})
				if res.Outcome != interp.OutcomeOK {
					b.Fatal(res.Trap)
				}
			}
		})
	}
}

func BenchmarkSimplifyPass(b *testing.B) {
	mk := func(simplify bool) *workloads.Built {
		built, err := workloads.BuildBenchmark("compress", instrument.SchemeSet{Bounds: true}, true)
		if err != nil {
			b.Fatal(err)
		}
		if simplify {
			cfg.SimplifyProgram(built.Program)
		}
		return built
	}
	for _, tc := range []struct {
		name     string
		simplify bool
	}{{"plain", false}, {"simplified", true}} {
		built := mk(tc.simplify)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := interp.Run(built.Program, interp.Config{Seed: 1, Density: 1.0 / 100, CountdownSeed: int64(i)})
				if res.Outcome != interp.OutcomeOK {
					b.Fatal(res.Trap)
				}
			}
		})
	}
}

func BenchmarkAblationGeometricVsPeriodic(b *testing.B) {
	sources := map[string]func() sampler.Source{
		"geometric": func() sampler.Source { return sampler.NewGeometric(1, 1.0/100) },
		"periodic":  func() sampler.Source { return &sampler.Periodic{Period: 100} },
		"bernoulli": func() sampler.Source { return sampler.NewBernoulli(1, 1.0/100) },
	}
	for name, mk := range sources {
		b.Run(name, func(b *testing.B) {
			src := mk()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += src.Next()
			}
			_ = sink
		})
	}
}

// ----------------------------------------------------------------------------
// Infrastructure micro-benches

func BenchmarkReportCodec(b *testing.B) {
	rep := &report.Report{Program: "bc", Counters: make([]uint64, 10000)}
	for i := 0; i < len(rep.Counters); i += 97 {
		rep.Counters[i] = uint64(i)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(rep.Encode()) == 0 {
				b.Fatal("empty")
			}
		}
	})
	enc := rep.Encode()
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := report.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The ingest hot path's shape: sampled bc reports as the repository's
	// benchmark sends them (ScalarPairs at density 1/10: 1 792 counters,
	// about 376 of them nonzero, about 780 B on the wire), sparse cache
	// primed, in /reports batches of 32.
	built, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
	if err != nil {
		b.Fatal(err)
	}
	db, err := workloads.BCFleet(built.Program, workloads.FleetConfig{Runs: 64, Density: 1.0 / 10, SeedBase: 11})
	if err != nil {
		b.Fatal(err)
	}
	pool := db.Reports
	wire := make([][]byte, len(pool))
	var wireBytes int64
	for i, r := range pool {
		r.Nonzeros()
		wire[i] = r.Encode()
		wireBytes += int64(len(wire[i]))
	}
	b.Run("bc/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(wireBytes / int64(len(pool)))
		for i := 0; i < b.N; i++ {
			codecSink = pool[i%len(pool)].Encode()
		}
	})
	b.Run("bc/decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(wireBytes / int64(len(pool)))
		for i := 0; i < b.N; i++ {
			if _, err := report.Decode(wire[i%len(wire)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	batch := pool[:32]
	body := report.EncodeBatch(batch)
	b.Run("bc/batch_encode/32", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			codecSink = report.EncodeBatch(batch)
		}
	})
	b.Run("bc/batch_decode/32", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := report.DecodeBatch(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// codecSink keeps the encode benchmarks' results alive.
var codecSink []byte

// BenchmarkCcryptRunStartup is one deployed ccrypt run as the fleet makes
// it (sampled 1/100, one Compiled, one world reset per run): about 10 k VM
// steps and 10 countdown draws: what it times beyond those steps is
// start-up, and its allocs/op is what a run costs beyond its Result.
func BenchmarkCcryptRunStartup(b *testing.B) {
	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		b.Fatal(err)
	}
	code := interp.Compile(built.Program)
	world := workloads.NewCcryptWorld(0)
	intrinsics := world.Intrinsics()
	b.ReportAllocs()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		world.Reset(seed*2654435761 + 1)
		steps += code.Run(interp.Config{
			Seed: seed, Density: 1.0 / 100, CountdownSeed: seed*40503 + 7, Intrinsics: intrinsics,
		}).Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

func BenchmarkStatsRunsNeeded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if stats.RunsNeeded(0.9, 1.0/100, 1.0/1000) != 230258 {
			b.Fatal("value")
		}
	}
}
