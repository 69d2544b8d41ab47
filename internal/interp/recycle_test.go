package interp_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/minic"
	"cbi/internal/progen"
	"cbi/internal/workloads"
)

// Compiled.Run executes on recycled VMs. The contract these tests pin: a
// run on recycled state — whatever the earlier runs on that state did — is
// reflect.DeepEqual to a run of the reference tree walker on a new VM, and
// nothing a Result references is touched by a later run.

var allSchemes = instrument.SchemeSet{
	Returns: true, ScalarPairs: true, Branches: true, Bounds: true, Asserts: true,
}

func buildSampled(t testing.TB, src string, builtins map[string]minic.BuiltinSig) *cfg.Program {
	t.Helper()
	f, err := minic.Parse("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := instrument.Build(f, builtins, allSchemes)
	if err != nil {
		t.Fatal(err)
	}
	return instrument.Sample(p, instrument.DefaultOptions())
}

// sweep is the schedule of run i of the identity tests: seeds, densities,
// bank sizes and trace capacities interleaved so that consecutive runs
// differ in all of them, including a never-sampling run, a one-slot bank,
// and a bank and a trace ring too large to be kept.
func sweep(i int) interp.Config {
	trace := []int{0, 16, 4}[i%3] // the ring grows and shrinks in place
	if i%7 == 6 {
		trace = 5000
	}
	return interp.Config{
		Seed:          int64(i*7919 + 1),
		CountdownSeed: int64(i*31 + 5),
		Density:       []float64{1.0 / 7, 0, 1.0 / 100, 1, 1.0 / 3}[i%5],
		BankSize:      []int{0, 1, 3, 5000}[i%4],
		TraceCapacity: trace,
		Fuel:          300_000,
	}
}

// assertRecycledMatchesTree runs conf on the recycled vm and on a new
// tree-walking VM and requires equal Results.
func assertRecycledMatchesTree(t *testing.T, label string, p *cfg.Program, code *interp.Compiled,
	vm *interp.VM, conf interp.Config) interp.Result {
	t.Helper()
	got := code.RunOn(vm, conf)
	conf.Engine = interp.EngineTree
	if want := interp.Run(p, conf); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recycled run differs from a new tree-walker run\nrecycled: %+v\ntree:     %+v", label, got, want)
	}
	return got
}

// moodySource is a program whose run is chosen by the host: a clean run
// that reads guest memory it never wrote, each of the traps, or a heap
// that outgrows the first arena chunks.
const moodySource = `
struct node { int val; struct node* next; };
int total = 7;
int* keep;

int deep(int n) { int pad = n * 2; return deep(n + 1) + pad; }

int dirty(int n) {
	// Fill every cell, slack included, and leave pointers everywhere a
	// later run could find them.
	struct node* head = null;
	for (int i = 0; i < n; i++) {
		int* p = alloc(5);
		for (int j = 0; j < 8; j++) { p[j] = 1000 + i + j; }
		struct node* nd = new node;
		nd->val = p[7];
		nd->next = head;
		head = nd;
		keep = p;
		if (i % 3 == 0) { free(p); }
	}
	int s = 0;
	while (head != null) { s += head->val; head = head->next; }
	return s;
}

int main() {
	int m = mood();
	total = total + m;
	if (m == 1) { int* p = null; return p[0]; }
	if (m == 2) { int* p = alloc(2); p[0] = 5; free(p); return p[0]; }
	if (m == 3) { return deep(0); }
	if (m == 4) { int s = 0; for (int i = 0; i < 100000000; i++) { s += i; } return s; }
	if (m == 5) { return dirty(400) % 251; }
	if (m == 6) { print("mood ", m, " total ", total, "\n"); return dirty(3) % 251; }
	// Clean: fresh cells and fresh objects must read zero, unset globals
	// null, and a fresh object must not be freed.
	int* q = alloc(6);
	struct node* nd = new node;
	int s = q[0] + q[5] + q[7] + nd->val + total;
	if (keep != null) { s += 1000; }
	if (nd->next != null) { s += 2000; }
	printi(s + rand(50));
	return s;
}`

func TestRecycledRunsMatchFreshTreeRuns(t *testing.T) {
	t.Run("moody", func(t *testing.T) {
		builtins := minic.DefaultBuiltins()
		builtins["mood"] = minic.BuiltinSig{Ret: minic.IntType}
		p := buildSampled(t, moodySource, builtins)
		code := interp.Compile(p)
		var mood int64
		intr := map[string]interp.Intrinsic{
			"mood": func(*interp.VM, []interp.Value) (interp.Value, error) { return interp.IntVal(mood), nil },
		}
		want := map[int64]interp.TrapKind{
			1: interp.TrapNullDeref, 2: interp.TrapUseAfterFree,
			3: interp.TrapStackOverflow, 4: interp.TrapFuelExhausted,
		}
		vm := new(interp.VM)
		// Every mood, each followed by a clean run on the state it left,
		// twice over so that every mood also follows every other.
		for i, m := range []int64{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 5, 4, 3, 2, 1, 6, 0, 3, 5, 0} {
			mood = m
			conf := sweep(i)
			conf.Intrinsics = intr
			res := assertRecycledMatchesTree(t, fmt.Sprintf("run %d mood %d", i, m), p, code, vm, conf)
			if kind, traps := want[m]; traps && (res.Trap == nil || res.Trap.Kind != kind) {
				t.Fatalf("run %d mood %d: trap %v, want %v", i, m, res.Trap, kind)
			} else if !traps && res.Outcome != interp.OutcomeOK {
				t.Fatalf("run %d mood %d: %v", i, m, res.Trap)
			}
		}
	})

	t.Run("ccrypt", func(t *testing.T) {
		b, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
		if err != nil {
			t.Fatal(err)
		}
		code := interp.Compile(b.Program)
		vm := new(interp.VM)
		crashes := 0
		for i := 0; i < 120; i++ {
			conf := sweep(i)
			// The world is stateful: one per engine, identically seeded.
			conf.Intrinsics = workloads.NewCcryptWorld(int64(i)).Intrinsics()
			got := code.RunOn(vm, conf)
			conf.Intrinsics = workloads.NewCcryptWorld(int64(i)).Intrinsics()
			conf.Engine = interp.EngineTree
			if want := interp.Run(b.Program, conf); !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: recycled run differs from a new tree-walker run\nrecycled: %+v\ntree:     %+v", i, got, want)
			}
			if got.Outcome == interp.OutcomeCrash {
				crashes++
			}
		}
		if crashes == 0 {
			t.Error("no ccrypt run crashed: the EOF path was never followed by a recycled run")
		}
	})

	t.Run("bc", func(t *testing.T) {
		b, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
		if err != nil {
			t.Fatal(err)
		}
		code := interp.Compile(b.Program)
		vm := new(interp.VM)
		for i := 0; i < 12; i++ {
			conf := sweep(i)
			conf.Fuel = 0
			assertRecycledMatchesTree(t, fmt.Sprintf("run %d", i), b.Program, code, vm, conf)
		}
	})

	t.Run("progen", func(t *testing.T) {
		for seed := int64(1); seed <= 6; seed++ {
			p := buildSampled(t, progen.Generate(seed, progen.DefaultConfig()), nil)
			code := interp.Compile(p)
			vm := new(interp.VM)
			for i := 0; i < 10; i++ {
				for _, eng := range []interp.Engine{interp.EngineFused, interp.EngineCompiled} {
					conf := sweep(i)
					conf.Engine = eng
					assertRecycledMatchesTree(t, fmt.Sprintf("seed %d run %d %s", seed, i, eng), p, code, vm, conf)
				}
			}
		}
	})
}

// TestResultSurvivesNextRun: what a Result references is the caller's.
func TestResultSurvivesNextRun(t *testing.T) {
	p := buildSampled(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 200; i++) { s += rand(10); }
	print("sum ", s, "\n");
	int* p = null;
	if (s % 2 == 0) { return p[0]; }
	return s;
}`, nil)
	code := interp.Compile(p)
	vm := new(interp.VM)
	conf := func(i int) interp.Config {
		return interp.Config{Seed: int64(i), CountdownSeed: int64(i), Density: 1.0 / 3, TraceCapacity: 16}
	}
	crashed := false
	for i := 0; i < 20; i++ {
		res := code.RunOn(vm, conf(i))
		if len(res.Trace) == 0 || res.Output == "" || res.SamplesTaken == 0 {
			t.Fatalf("run %d exercises nothing: %+v", i, res)
		}
		saved := res
		saved.Counters = append([]uint64(nil), res.Counters...)
		saved.Trace = append([]int(nil), res.Trace...)
		saved.Output = strings.Clone(res.Output)
		if res.Trap != nil {
			trap := *res.Trap
			saved.Trap = &trap
			crashed = true
		}
		code.RunOn(vm, conf(i+100))
		if !reflect.DeepEqual(res, saved) {
			t.Fatalf("run %d's Result changed under the next run\nnow:  %+v\nthen: %+v", i, res, saved)
		}
	}
	if !crashed {
		t.Error("no run trapped")
	}
}

// TestCompiledRunIsConcurrencySafe shares one Compiled, and so one VM
// pool, among 8 goroutines (CI runs this under -race).
func TestCompiledRunIsConcurrencySafe(t *testing.T) {
	b, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 60
	conf := func(i int) interp.Config {
		c := sweep(i)
		c.Intrinsics = workloads.NewCcryptWorld(int64(i)).Intrinsics()
		return c
	}
	want := make([]interp.Result, runs)
	for i := range want {
		c := conf(i)
		c.Engine = interp.EngineTree
		want[i] = interp.Run(b.Program, c)
	}
	code := interp.Compile(b.Program)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < runs; k++ {
				i := (k*7 + g*11) % runs // each goroutine in its own order
				if got := code.Run(conf(i)); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d run %d differs from the tree walker", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// bytesPerRun is the mean heap allocation of one call of f.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A math/rand source is 607 words of state; a run that allocates less
// than that seeded none.
const randSourceBytes = 607 * 8

// TestBaselineRunSeedsNothing: a Density 0 run can never sample and draws
// no rand(), so even on a new VM it must not pay for a generator.
func TestBaselineRunSeedsNothing(t *testing.T) {
	f, err := minic.Parse("t.mc", `int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	code := interp.Compile(p)
	for _, eng := range []interp.Engine{interp.EngineFused, interp.EngineTree} {
		got := bytesPerRun(200, func() {
			var res interp.Result
			if eng == interp.EngineTree {
				res = interp.Run(p, interp.Config{Engine: eng, Seed: 3, CountdownSeed: 4})
			} else {
				res = code.NewVM(interp.Config{Seed: 3, CountdownSeed: 4}).Run()
			}
			if res.ExitCode != 45 {
				t.Fatalf("%+v", res)
			}
		})
		if got >= randSourceBytes {
			t.Errorf("%s: a baseline run on a new VM allocates %d B, enough for a rand source (%d B)", eng, got, randSourceBytes)
		}
	}
}

// poolKeeps reports whether sync.Pool returns what was just put, which
// it does not under the race detector (it drops a quarter of all Puts).
func poolKeeps() bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestCompiledRunAllocationCeiling is the regression guard on start-up
// cost: Compiled.Run allocates what escapes into the Result and little
// else. Measured at introduction: trivial 1 object / 24 B (the counter
// vector), ccrypt 35 objects / 1.9 KB (counters, and the world's
// intrinsics: argument slices, file names, the pass phrase); the ceilings
// leave about half again. Before recycling, the ccrypt run cost 89
// objects / 37 KB. With the two-word Value each non-empty string value
// the intrinsics return costs one object header more, and every cell and
// argument slot a third of its old size: ccrypt 41 objects / 1.6 KB.
// CI runs this test without -race (see poolKeeps).
func TestCompiledRunAllocationCeiling(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops entries here (race detector?); Run cannot be held to a ceiling")
	}
	trivial := interp.Compile(buildSampled(t, `int f(int x) { return x + 1; } int main() { return f(2); }`, nil))
	b, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	ccrypt := interp.Compile(b.Program)
	world := workloads.NewCcryptWorld(0)
	intr := world.Intrinsics()
	seed := int64(0)
	for _, tc := range []struct {
		name            string
		run             func()
		objects, nbytes float64
	}{
		{"trivial", func() {
			seed++
			trivial.Run(interp.Config{Seed: seed, CountdownSeed: seed, Density: 1.0 / 100})
		}, 3, 128},
		{"ccrypt", func() {
			seed++
			world.Reset(seed*2654435761 + 1)
			ccrypt.Run(interp.Config{Seed: seed, CountdownSeed: seed*40503 + 7, Density: 1.0 / 100, Intrinsics: intr})
		}, 52, 2816},
	} {
		objects := testing.AllocsPerRun(200, tc.run)
		nbytes := float64(bytesPerRun(200, tc.run))
		t.Logf("%s: %.0f objects, %.0f B per run", tc.name, objects, nbytes)
		if objects > tc.objects || nbytes > tc.nbytes {
			t.Errorf("%s: %.0f objects / %.0f B per run, ceiling %.0f / %.0f",
				tc.name, objects, nbytes, tc.objects, tc.nbytes)
		}
	}
}
