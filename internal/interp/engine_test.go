package interp

import (
	"fmt"
	"reflect"
	"testing"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/minic"
	"cbi/internal/progen"
)

// The bytecode engines (the exact loop alone, and with the fused fast
// path) must be bit-identical to the tree walker: same counters, outcome,
// exit code, output, trap kind/position/message, step totals, sample
// counts, and flight-recorder traces. These tests run the same program through all
// three engines and require the full Result to match pairwise.

var allSchemes = instrument.SchemeSet{
	Returns: true, ScalarPairs: true, Branches: true, Bounds: true, Asserts: true,
}

// buildVariants parses src and returns it lowered three ways: baseline
// (no instrumentation), unconditionally instrumented, and sampled.
func buildVariants(t testing.TB, src string) map[string]*cfg.Program {
	t.Helper()
	variants := map[string]*cfg.Program{}
	f, err := minic.Parse("t.mc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base, err := cfg.Build(f, nil, nil)
	if err != nil {
		t.Fatalf("build baseline: %v", err)
	}
	variants["baseline"] = base
	f2, err := minic.Parse("t.mc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	uncond, err := cfg.Build(f2, nil, &instrument.Schemes{Set: allSchemes})
	if err != nil {
		t.Fatalf("build instrumented: %v", err)
	}
	variants["unconditional"] = uncond
	variants["sampled"] = instrument.Sample(uncond, instrument.DefaultOptions())
	return variants
}

// diffEngines runs p under conf on all three engines, and on a recycled
// VM, and fails on any difference in the observable Result, with the tree
// walker as the reference.
func diffEngines(t testing.TB, label string, p *cfg.Program, conf Config) {
	t.Helper()
	tc := conf
	tc.Engine = EngineTree
	tree := Run(p, tc)
	for _, eng := range []Engine{EngineCompiled, EngineFused} {
		ec := conf
		ec.Engine = eng
		assertSameResult(t, label+"/"+eng.String(), tree, Run(p, ec))
	}
	// The fused engine again, twice on one VM of one Compiled: the second
	// run executes on the state the first one left and recycled.
	code, vm := Compile(p), new(VM)
	for i := 0; i < 2; i++ {
		assertSameResult(t, fmt.Sprintf("%s/recycled%d", label, i), tree, code.runOn(vm, conf))
	}
}

func assertSameResult(t testing.TB, label string, tree, compiled Result) {
	t.Helper()
	if tree.Outcome != compiled.Outcome {
		t.Errorf("%s: outcome tree=%v compiled=%v", label, tree.Outcome, compiled.Outcome)
	}
	if tree.ExitCode != compiled.ExitCode {
		t.Errorf("%s: exit code tree=%d compiled=%d", label, tree.ExitCode, compiled.ExitCode)
	}
	if tree.Steps != compiled.Steps {
		t.Errorf("%s: steps tree=%d compiled=%d", label, tree.Steps, compiled.Steps)
	}
	if tree.Output != compiled.Output {
		t.Errorf("%s: output tree=%q compiled=%q", label, tree.Output, compiled.Output)
	}
	if tree.SamplesTaken != compiled.SamplesTaken {
		t.Errorf("%s: samples tree=%d compiled=%d", label, tree.SamplesTaken, compiled.SamplesTaken)
	}
	if !reflect.DeepEqual(tree.Counters, compiled.Counters) {
		t.Errorf("%s: counter vectors differ\ntree:     %v\ncompiled: %v",
			label, tree.Counters, compiled.Counters)
	}
	if !reflect.DeepEqual(tree.Trace, compiled.Trace) {
		t.Errorf("%s: traces differ\ntree:     %v\ncompiled: %v", label, tree.Trace, compiled.Trace)
	}
	switch {
	case (tree.Trap == nil) != (compiled.Trap == nil):
		t.Errorf("%s: trap tree=%v compiled=%v", label, tree.Trap, compiled.Trap)
	case tree.Trap != nil && *tree.Trap != *compiled.Trap:
		t.Errorf("%s: traps differ tree=%v compiled=%v", label, tree.Trap, compiled.Trap)
	}
	if tree.Profile != nil || compiled.Profile != nil {
		if (tree.Profile == nil) != (compiled.Profile == nil) {
			t.Fatalf("%s: profile presence differs", label)
		}
		tt, ct := tree.Profile.Totals(), compiled.Profile.Totals()
		if tt != ct {
			t.Errorf("%s: profile totals differ tree=%v compiled=%v", label, tt, ct)
		}
		var sum uint64
		for _, v := range ct {
			sum += v
		}
		if sum != compiled.Steps {
			t.Errorf("%s: compiled profile sums to %d, steps %d", label, sum, compiled.Steps)
		}
	}
}

func diffAllVariants(t testing.TB, name, src string, seed int64) {
	for variant, p := range buildVariants(t, src) {
		conf := Config{
			Seed:          seed,
			CountdownSeed: seed * 7,
			Density:       1.0 / 29,
			TraceCapacity: 8,
		}
		diffEngines(t, name+"/"+variant, p, conf)
		// Same again with the profiler attached: its exact-total
		// guarantee must hold on the compiled engine too.
		conf.Profile = true
		diffEngines(t, name+"/"+variant+"/profiled", p, conf)

		// And under resource limits, the net under every boundary where
		// the fast loop hands over to the exact one: fuel around the
		// 16-step slack of the fast-path guard, around the end of the run
		// and in its middle, and call depths that overflow early.
		full := conf
		full.Engine = EngineTree
		steps := int64(Run(p, full).Steps)
		for _, fuel := range []int64{15, 16, 17, 31, steps / 2, steps - 16, steps - 15, steps - 1, steps, steps + 1} {
			if fuel <= 0 {
				continue // Fuel 0 is the default, not a limit
			}
			for _, prof := range []bool{false, true} {
				lim := conf
				lim.Fuel, lim.Profile = uint64(fuel), prof
				diffEngines(t, fmt.Sprintf("%s/%s/fuel%d/profile=%v", name, variant, fuel, prof), p, lim)
			}
		}
		for _, depth := range []int{1, 2, 3, 5} {
			lim := conf
			lim.Profile, lim.MaxDepth = false, depth
			diffEngines(t, fmt.Sprintf("%s/%s/depth%d", name, variant, depth), p, lim)
		}
	}
}

func TestEnginesAgreeOnProgenPrograms(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		diffAllVariants(t, fmt.Sprintf("seed%d", seed), src, seed)
	}
}

// FuzzEnginesDifferential is the open-ended version: any seed must
// produce engine-identical behaviour on all three variants. CI runs it
// for a fixed budget under -race.
func FuzzEnginesDifferential(f *testing.F) {
	for _, seed := range []int64{1, 2, 17, 1234, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Generate(seed, progen.DefaultConfig())
		diffAllVariants(t, fmt.Sprintf("seed%d", seed), src, seed)
	})
}

// TestEnginesAgreeOnTraps exercises the mid-expression and mid-probe
// trap points progen deliberately avoids: the engines must agree on the
// trap kind, position, message, and the exact step count at the fault.
func TestEnginesAgreeOnTraps(t *testing.T) {
	cases := map[string]string{
		"null deref":     `int main() { int* p = null; return p[0]; }`,
		"out of bounds":  `int main() { int* p = alloc(2); return p[40]; }`,
		"div by zero":    `int main() { int z = 0; return 4 / z; }`,
		"mod by zero":    `int main() { int z = 0; return 4 % z; }`,
		"use after free": `int main() { int* p = alloc(2); free(p); return p[0]; }`,
		"abort":          `int main() { abort("boom"); return 0; }`,
		"assert":         `int main() { int x = 2; assert(x > 5); return 0; }`,
		"deep recursion": `int f(int n) { return f(n + 1); } int main() { return f(0); }`,
		"trap in cell store": `
int main() { int* p = alloc(2); int z = 0; p[1 / z] = 3; return 0; }`,
		"trap in call arg": `
int g(int x) { return x; } int main() { int z = 0; return g(7 / z); }`,
		"trap in return expr": `
int main() { int* p = alloc(1); free(p); return p[0] + 1; }`,
		"lucky overrun then fatal": `
int main() {
	int* p = alloc(5);
	p[6] = 1;
	int s = p[6];
	return s + p[900];
}`,
	}
	for name, src := range cases {
		diffAllVariants(t, name, src, 11)
	}
}

// TestEnginesAgreeOnFuelExhaustion pins the fuel-trap boundary: fuel can
// run out at an instruction or terminator charge, and both engines must
// stop on the same step with the same trap.
func TestEnginesAgreeOnFuelExhaustion(t *testing.T) {
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < 1000000; i++) { s = s + i; }
	return s;
}`
	for variant, p := range buildVariants(t, src) {
		for _, fuel := range []uint64{1, 2, 3, 50, 51, 52, 53, 54, 1000} {
			conf := Config{Fuel: fuel, Density: 1.0 / 13, CountdownSeed: 5, Profile: true}
			diffEngines(t, fmt.Sprintf("%s/fuel%d", variant, fuel), p, conf)
		}
	}
}

// TestEnginesAgreeWithIntrinsics covers host intrinsics (compiled as
// "fresh" builtin calls) including one that retains its argument slice.
func TestEnginesAgreeWithIntrinsics(t *testing.T) {
	src := `
int main() {
	int acc = 0;
	for (int i = 0; i < 10; i++) { acc = acc + probe2(i, acc); }
	return acc;
}`
	f, err := minic.Parse("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	builtins := map[string]minic.BuiltinSig{
		"probe2": {MinArgs: 2, MaxArgs: 2, Ret: minic.IntType},
	}
	p, err := cfg.Build(f, builtins, nil)
	if err != nil {
		t.Fatal(err)
	}
	var retained [][]Value
	conf := Config{
		Intrinsics: map[string]Intrinsic{
			"probe2": func(vm *VM, args []Value) (Value, error) {
				retained = append(retained, args) // must not alias scratch
				return IntVal(args[0].I + args[1].I%3), nil
			},
		},
	}
	tc := conf
	tc.Engine = EngineTree
	tree := Run(p, tc)
	treeRetained := retained
	for _, eng := range []Engine{EngineCompiled, EngineFused} {
		retained = nil
		ec := conf
		ec.Engine = eng
		assertSameResult(t, "intrinsics/"+eng.String(), tree, Run(p, ec))
		if !reflect.DeepEqual(treeRetained, retained) {
			t.Errorf("retained intrinsic args differ:\ntree: %v\n%s:   %v",
				treeRetained, eng, retained)
		}
	}
}

// TestCompiledSharedAcrossRuns checks the compile-once contract: one
// Compiled value reused for many runs with different seeds — on either
// bytecode engine — matches per-run tree-walker executions exactly.
func TestCompiledSharedAcrossRuns(t *testing.T) {
	src := progen.Generate(42, progen.DefaultConfig())
	p := buildVariants(t, src)["sampled"]
	code := Compile(p)
	for seed := int64(0); seed < 10; seed++ {
		conf := Config{Seed: seed, CountdownSeed: seed, Density: 1.0 / 17, TraceCapacity: 4}
		tc := conf
		tc.Engine = EngineTree
		tree := Run(p, tc)
		for _, eng := range []Engine{EngineCompiled, EngineFused} {
			ec := conf
			ec.Engine = eng
			assertSameResult(t, fmt.Sprintf("shared/seed%d/%s", seed, eng), tree, code.Run(ec))
		}
	}
}

// TestCmpMatchesLessEqual is the property behind the single-pass
// comparison fix: Cmp must agree with the historical Less/Equal pair on
// every kind combination.
func TestCmpMatchesLessEqual(t *testing.T) {
	obj1 := &Object{ID: 1, Data: make([]Value, 4), Size: 4}
	obj2 := &Object{ID: 2, Data: make([]Value, 4), Size: 4}
	vals := []Value{
		IntVal(-3), IntVal(0), IntVal(5),
		StrVal(""), StrVal("a"), StrVal("b"),
		NullVal(),
		PtrVal(obj1, 0), PtrVal(obj1, 2), PtrVal(obj2, 0),
	}
	for _, a := range vals {
		for _, b := range vals {
			c := a.Cmp(b)
			if got, want := c == -1, a.Less(b); got != want {
				t.Errorf("Cmp(%v,%v)=%d: lt=%v want %v", a, b, c, got, want)
			}
			if got, want := c == 0, a.Equal(b); got != want {
				t.Errorf("Cmp(%v,%v)=%d: eq=%v want %v", a, b, c, got, want)
			}
			if got, want := c == 1, b.Less(a); got != want {
				t.Errorf("Cmp(%v,%v)=%d: gt=%v want %v", a, b, c, got, want)
			}
			// Antisymmetry, including the unordered marker.
			rc := b.Cmp(a)
			if c == CmpUnordered != (rc == CmpUnordered) || (c != CmpUnordered && rc != -c) {
				t.Errorf("Cmp(%v,%v)=%d but Cmp(%v,%v)=%d", a, b, c, b, a, rc)
			}
		}
	}
}
