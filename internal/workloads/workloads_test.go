package workloads

import (
	"strings"
	"testing"

	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/minic"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("benchmarks: %d, want 13 (Table 1)", len(all))
	}
	// Olden first, then SPEC, as in Table 1.
	wantOlden := 9
	for i, b := range all {
		if i < wantOlden && b.Suite != "olden" {
			t.Errorf("position %d: %s is %s", i, b.Name, b.Suite)
		}
		if i >= wantOlden && b.Suite != "specint95" {
			t.Errorf("position %d: %s is %s", i, b.Name, b.Suite)
		}
	}
	if _, err := ByName("treeadd"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestAllBenchmarksRunCleanBaseline(t *testing.T) {
	for _, b := range All() {
		f, err := b.Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", b.Name, err)
		}
		prog, err := instrument.BuildBaseline(f, nil)
		if err != nil {
			t.Fatalf("%s: build: %v", b.Name, err)
		}
		res := interp.Run(prog, interp.Config{Fuel: 100_000_000})
		if res.Outcome != interp.OutcomeOK || res.ExitCode != 0 {
			t.Errorf("%s: exit %d, trap %v", b.Name, res.ExitCode, res.Trap)
		}
		if res.Steps < 10_000 {
			t.Errorf("%s: only %d steps; too small to measure overhead", b.Name, res.Steps)
		}
	}
}

func TestAllBenchmarksRunInstrumentedAndSampled(t *testing.T) {
	for _, b := range All() {
		f, err := b.Parse()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := instrument.Build(f, nil, instrument.SchemeSet{Bounds: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(prog.Sites) == 0 {
			t.Errorf("%s: no bounds sites", b.Name)
		}
		res := interp.Run(prog, interp.Config{Fuel: 200_000_000})
		if res.Outcome != interp.OutcomeOK || res.ExitCode != 0 {
			t.Errorf("%s unconditional: exit %d, trap %v", b.Name, res.ExitCode, res.Trap)
		}
		sp := instrument.Sample(prog, instrument.DefaultOptions())
		res2 := interp.Run(sp, interp.Config{Density: 1.0 / 100, CountdownSeed: 3, Fuel: 200_000_000})
		if res2.Outcome != interp.OutcomeOK || res2.ExitCode != 0 {
			t.Errorf("%s sampled: exit %d, trap %v", b.Name, res2.ExitCode, res2.Trap)
		}
		if res2.SamplesTaken >= res.SamplesTaken {
			t.Errorf("%s: sampling did not reduce probes (%d vs %d)",
				b.Name, res2.SamplesTaken, res.SamplesTaken)
		}
	}
}

func TestBenchmarksAreCheckDense(t *testing.T) {
	// Table 1's premise: the programs contain many check sites spread
	// over several functions.
	for _, b := range All() {
		f, err := b.Parse()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := instrument.Build(f, nil, instrument.SchemeSet{Bounds: true})
		if err != nil {
			t.Fatal(err)
		}
		sp := instrument.Sample(prog, instrument.DefaultOptions())
		m := instrument.ComputeMetrics(sp)
		if m.WithSites == 0 || m.AvgSitesPerFunc < 1 {
			t.Errorf("%s: metrics %+v", b.Name, m)
		}
	}
}

// ----------------------------------------------------------------------------
// ccrypt

func buildCcrypt(t *testing.T, set instrument.SchemeSet, sampled bool) *Built {
	t.Helper()
	b, err := BuildCcrypt(set, sampled)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCcryptBugIsDeterministicOnEOF(t *testing.T) {
	// Directly force EOF on the first prompt: the run must crash with a
	// null dereference at the response[0] line.
	f, err := minic.Parse("ccrypt.mc", CcryptSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.BuildBaseline(f, CcryptBuiltins())
	if err != nil {
		t.Fatal(err)
	}
	world := NewCcryptWorld(1)
	world.PEOF = 100    // every read is EOF
	world.PExists = 100 // every file exists -> prompt guaranteed
	world.force = false
	res := interp.Run(prog, interp.Config{Intrinsics: world.Intrinsics()})
	if res.Outcome != interp.OutcomeCrash || res.Trap.Kind != interp.TrapNullDeref {
		t.Fatalf("EOF should crash deterministically: %+v trap=%v", res.Outcome, res.Trap)
	}
	if !strings.Contains(res.Output, "overwrite") {
		t.Errorf("prompt not printed: %q", res.Output)
	}
}

// TestCcryptIntrinsicsReadOperandKinds pins what the string- and
// int-taking intrinsics make of operands of the other kinds: a file
// number that is not an int reads as 0, and a file name that is not a
// string reads as "".
func TestCcryptIntrinsicsReadOperandKinds(t *testing.T) {
	f, err := minic.Parse("ccrypt.mc", CcryptSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.BuildBaseline(f, CcryptBuiltins())
	if err != nil {
		t.Fatal(err)
	}
	vm := interp.New(prog, interp.Config{})
	ptr := interp.PtrVal(vm.Alloc(8).Obj(), 3)
	world := NewCcryptWorld(1)
	world.PIOError = 0
	intr := world.Intrinsics()
	var got []string
	for _, arg := range []interp.Value{interp.IntVal(4), interp.NullVal(), interp.StrVal(""), interp.StrVal("ab"), ptr} {
		name, err := intr["file_name"](vm, []interp.Value{arg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := intr["write_file"](vm, []interp.Value{arg}); err != nil {
			t.Fatal(err)
		}
		got = append(got, name.String())
	}
	if want := "file4.cpt file0.cpt file0.cpt file0.cpt file0.cpt"; strings.Join(got, " ") != want {
		t.Errorf("file_name: %q, want %q", strings.Join(got, " "), want)
	}
	for name, want := range map[string]bool{"": true, "ab": true, "file4.cpt": false} {
		if world.exists[name] != want {
			t.Errorf("exists[%q] = %v, want %v", name, world.exists[name], want)
		}
	}
}

// TestCcryptWorldResetAllocatesNothing: the fleet resets one world per
// run, and the reset re-seeds the world's generator in place.
func TestCcryptWorldResetAllocatesNothing(t *testing.T) {
	w := NewCcryptWorld(1)
	seed := int64(1)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		w.Reset(seed)
	})
	if allocs != 0 {
		t.Errorf("Reset costs %v allocations", allocs)
	}
}

func TestCcryptFleetProducesMixedOutcomes(t *testing.T) {
	b := buildCcrypt(t, instrument.SchemeSet{Returns: true}, false)
	db, err := CcryptFleet(b.Program, FleetConfig{Runs: 300, SeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	crashes := len(db.Failures())
	if crashes == 0 {
		t.Fatal("fuzzing never hit the bug")
	}
	if crashes == db.Len() {
		t.Fatal("every run crashed; bug should be occasional")
	}
	rate := float64(crashes) / float64(db.Len())
	if rate > 0.35 {
		t.Errorf("crash rate %.2f is too high for the §3.2.3 setup", rate)
	}
	// All crashes must be the EOF null dereference.
	for _, r := range db.Failures() {
		if r.TrapKind != interp.TrapNullDeref.String() {
			t.Errorf("unexpected crash kind %q", r.TrapKind)
		}
	}
}

// ----------------------------------------------------------------------------
// bc

func TestBCFleetCrashesNondeterministically(t *testing.T) {
	b, err := BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	db, err := BCFleet(b.Program, FleetConfig{Runs: 200, SeedBase: 10})
	if err != nil {
		t.Fatal(err)
	}
	crashes := len(db.Failures())
	rate := float64(crashes) / float64(db.Len())
	// The paper reports "roughly one time in four"; accept a broad band.
	if rate < 0.05 || rate > 0.6 {
		t.Fatalf("crash rate %.2f outside plausible band (crashes=%d)", rate, crashes)
	}
	for _, r := range db.Failures() {
		if r.TrapKind != interp.TrapOutOfBounds.String() {
			t.Errorf("unexpected crash kind %q", r.TrapKind)
		}
	}
}

func TestBCBuggyLineFound(t *testing.T) {
	line := BCBuggyLine()
	if line <= 0 {
		t.Fatal("buggy line not located")
	}
	lines := strings.Split(BCSource, "\n")
	if !strings.Contains(lines[line-1], "indx < v_count") {
		t.Errorf("line %d is %q", line, lines[line-1])
	}
	// It must be inside more_arrays, after the BUG comment.
	upto := strings.Join(lines[:line], "\n")
	if !strings.Contains(upto, "void more_arrays") || !strings.Contains(upto, "// BUG") {
		t.Error("located line is not the more_arrays bug")
	}
}

func TestBCScalarPairsCoverBuggyLine(t *testing.T) {
	b, err := BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	line := BCBuggyLine()
	found := 0
	for _, s := range b.Program.Sites {
		if s.Pos.Line == line && s.Fn == "more_arrays" && s.Text == "indx" {
			found++
		}
	}
	// indx++ on the buggy line pairs with old_count and the int globals.
	if found < 5 {
		t.Errorf("only %d indx sites at buggy line %d", found, line)
	}
}

func TestReportOfMapsTraps(t *testing.T) {
	res := interp.Result{Outcome: interp.OutcomeCrash,
		Trap: &interp.Trap{Kind: interp.TrapOutOfBounds}, Counters: []uint64{1}}
	rep := ReportOf("p", 3, res)
	if !rep.Crashed || rep.TrapKind != "out-of-bounds access" || rep.RunID != 3 {
		t.Errorf("%+v", rep)
	}
	ok := ReportOf("p", 4, interp.Result{Outcome: interp.OutcomeOK, ExitCode: 2, Counters: []uint64{0}})
	if ok.Crashed || ok.ExitCode != 2 {
		t.Errorf("%+v", ok)
	}
}
