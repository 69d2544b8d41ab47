package interp_test

import (
	"reflect"
	"testing"

	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/workloads"
)

// What the fused stream is for, checked on the traffic it was chosen
// from — the Table 2 kernels as baseline, unconditionally instrumented
// and sampled programs, and a ccrypt fleet: every superinstruction
// earns its two places (fuse rule, fast arm) by being dispatched
// somewhere; the fast loop is where a deployed run spends its time, not
// a detour it keeps leaving; and watching the dispatch mix does not
// change the run.

// ccryptOps is the dispatch histogram of ccryptRuns sampled ccrypt runs,
// as the handler-table engine counted it before exec had one exact loop.
var ccryptOps = map[string]uint64{
	"assign_local":       56035,
	"call":               64399,
	"call_builtin":       17370,
	"cd_import":          2105,
	"countdown_dec":      10948,
	"f_assign_bin3":      8901,
	"f_assign_bin_imm":   48414,
	"f_assign_leaf":      12629,
	"f_assign_load":      369,
	"f_dec_export":       8721,
	"f_dec_goto":         55122,
	"f_dec_if_bin":       8177,
	"f_export_call":      4061,
	"f_export_ret":       21,
	"f_export_ret_leaf":  12913,
	"f_if_bin":           106323,
	"f_if_leaf":          854,
	"f_import_threshold": 23627,
	"f_ret_leaf":         55618,
	"goto":               2493,
	"guarded_site":       1162,
	"ret":                60,
	"threshold":          57022,
}

const ccryptRuns = 200

// runCounted runs conf three ways on code — plain, counting opcodes, and
// counting hand-overs — requires the same Result of all three, adds the
// run's dispatches to total, and returns them with the hand-over count.
func runCounted(t *testing.T, label string, code *interp.Compiled, conf interp.Config,
	total map[string]uint64) (dispatches, handovers uint64) {
	t.Helper()
	plain := code.Run(conf)
	watched, handovers := code.RunHandovers(conf)
	conf.CountOps = true
	counted := code.Run(conf)
	for op, n := range counted.OpCounts {
		total[op] += n
		dispatches += n
	}
	if dispatches == 0 {
		t.Fatalf("%s: CountOps run counted nothing", label)
	}
	counted.OpCounts = nil
	if !reflect.DeepEqual(plain, counted) || !reflect.DeepEqual(plain, watched) {
		t.Fatalf("%s: counting changed the run\nplain:   %+v\ncounted: %+v\nwatched: %+v", label, plain, counted, watched)
	}
	// The hand-over count's positive control: with no fuel to spare the
	// fast-path guard trips in the run's last steps.
	conf.CountOps, conf.Fuel = false, plain.Steps
	if _, n := code.RunHandovers(conf); n == 0 {
		t.Errorf("%s: no hand-over in a run that ends on its last step of fuel", label)
	}
	return dispatches, handovers
}

func TestFusedTraffic(t *testing.T) {
	kernels := workloads.All()
	if testing.Short() {
		kernels = kernels[:3]
	}
	all := map[string]uint64{}
	var fused, unfused uint64 // dispatches over the kernels' sampled cells
	for _, k := range kernels {
		cells := table2Cells(t, k.Source, instrument.SchemeSet{Bounds: true})
		for _, cell := range []string{"baseline", "uncond", "sampled"} {
			label := k.Name + "/" + cell
			conf := interp.Config{Seed: 42, CountdownSeed: 42}
			if cell == "sampled" {
				conf.Density = 1.0 / 100
			}
			code := interp.Compile(cells[cell])
			dispatches, handovers := runCounted(t, label, code, conf, all)
			if handovers*100 > dispatches {
				t.Errorf("%s: %d hand-overs in %d fused dispatches, want at most 1%%", label, handovers, dispatches)
			}
			if cell == "sampled" {
				conf.Engine, conf.CountOps = interp.EngineCompiled, true
				var n uint64
				for _, c := range code.Run(conf).OpCounts {
					n += c
				}
				t.Logf("%s: %d fused dispatches for %d unfused instructions (%.3f)", label, dispatches, n, float64(dispatches)/float64(n))
				fused += dispatches
				unfused += n
			}
		}
	}
	// What fusion buys without a clock: a fuse rule that stops matching
	// the kernels' shapes moves this ratio, not only a wall time.
	ratio := float64(fused) / float64(unfused)
	t.Logf("sampled kernels: %d fused dispatches for %d unfused instructions (%.3f)", fused, unfused, ratio)
	if !testing.Short() && ratio > 0.75 {
		t.Errorf("fused stream dispatches %.3f of the unfused instruction count over the sampled kernels, want at most 0.75", ratio)
	}

	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	code := interp.Compile(built.Program)
	world := workloads.NewCcryptWorld(0)
	intrinsics := world.Intrinsics()
	ccrypt := map[string]uint64{}
	for i := 0; i < ccryptRuns; i++ { // workloads.CcryptFleet's schedule, SeedBase 42
		seed := int64(42 + i)
		conf := interp.Config{
			Seed:          seed,
			Density:       1.0 / 100,
			CountdownSeed: seed*40503 + 7,
			Intrinsics:    intrinsics,
		}
		// The world is host state a run consumes: every run starts from a
		// fresh one.
		run := func(c interp.Config) interp.Result {
			world.Reset(seed*2654435761 + 1)
			return code.Run(c)
		}
		plain := run(conf)
		conf.CountOps = true
		counted := run(conf)
		for op, n := range counted.OpCounts {
			ccrypt[op] += n
			all[op] += n
		}
		counted.OpCounts = nil
		if !reflect.DeepEqual(plain, counted) {
			t.Fatalf("ccrypt run %d: counting changed the run\nplain:   %+v\ncounted: %+v", i, plain, counted)
		}
	}
	if !reflect.DeepEqual(ccrypt, ccryptOps) {
		t.Errorf("ccrypt dispatch histogram moved\ngot:  %v\nwant: %v", ccrypt, ccryptOps)
	}

	if !testing.Short() {
		for _, op := range interp.FusedOps() {
			if all[op] == 0 {
				t.Errorf("superinstruction %s is never dispatched: prune it (fuse rule, fast arm, opcode)", op)
			}
		}
	}
}
