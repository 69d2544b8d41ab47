package interp_test

import (
	"testing"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/minic"
	"cbi/internal/workloads"
)

// loopSource is shaped like the hot paths the fusion pass targets: tight
// loops of scalar arithmetic, array loads/stores, and comparisons, so
// that under instrumentation the countdown fast path dominates.
const loopSource = `
int work(int n) {
	int* a = alloc(64);
	int s = 0;
	for (int i = 0; i < 64; i++) { a[i] = i * 3; }
	for (int r = 0; r < n; r++) {
		for (int i = 0; i < 64; i++) {
			int v = a[i];
			s = s + v;
			if (s > 100000) { s = s - 100000; }
			a[i] = v + 1;
		}
	}
	return s;
}
int main() { return work(200); }`

// table2Cells lowers src the three ways of Table 2: no instrumentation,
// every site checked, and sampled.
func table2Cells(tb testing.TB, src string, set instrument.SchemeSet) map[string]*cfg.Program {
	tb.Helper()
	parse := func() *minic.File {
		f, err := minic.Parse("t.mc", src)
		if err != nil {
			tb.Fatal(err)
		}
		return f
	}
	base, err := cfg.Build(parse(), nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	uncond, err := instrument.Build(parse(), nil, set)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*cfg.Program{
		"baseline": base,
		"uncond":   uncond,
		"sampled":  instrument.Sample(uncond, instrument.DefaultOptions()),
	}
}

// BenchmarkEngineSteps is the on-demand comparison of the three engines'
// steps/s; the judged number is bench/'s table2_vm work_per_s. The
// loop program is all int arithmetic; treeadd branches on pointer
// compares and, unconditionally instrumented, spends a third of its
// dispatches in probes — the operand shapes and the op that once had no
// fast arm.
func BenchmarkEngineSteps(b *testing.B) {
	treeadd, err := workloads.ByName("treeadd")
	if err != nil {
		b.Fatal(err)
	}
	for _, prog := range []struct {
		name  string
		cells map[string]*cfg.Program
		run   []string
	}{
		{"loop", table2Cells(b, loopSource, allSchemes), []string{"sampled"}},
		{"treeadd", table2Cells(b, treeadd.Source, instrument.SchemeSet{Bounds: true}), []string{"baseline", "uncond", "sampled"}},
	} {
		for _, cell := range prog.run {
			p := prog.cells[cell]
			code := interp.Compile(p)
			for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineCompiled, interp.EngineFused} {
				b.Run(prog.name+"/"+cell+"/"+eng.String(), func(b *testing.B) {
					var steps uint64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						conf := interp.Config{Seed: int64(i), CountdownSeed: int64(i), Engine: eng}
						if cell == "sampled" {
							conf.Density = 1.0 / 100
						}
						var res interp.Result
						if eng == interp.EngineTree {
							res = interp.Run(p, conf)
						} else {
							res = code.Run(conf)
						}
						if res.Outcome != interp.OutcomeOK {
							b.Fatalf("run failed: %v", res.Trap)
						}
						steps += res.Steps
					}
					b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
				})
			}
		}
	}
}
