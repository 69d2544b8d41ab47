package interp

import (
	"fmt"
	"testing"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/minic"
)

// Lowering edge cases the fusion pass must not break. Each case is run
// through diffAllVariants (baseline / unconditional / sampled, with and
// without the profiler) so any divergence in steps, traps, counters, or
// profiler attribution between the fused engine and the two oracles
// fails the test.

// TestFusionJumpTargetsLandOnBlockEntries pins the invariant fusion
// relies on: every jump target in the compiled stream is a block entry,
// so a fused pair can never be entered mid-pair. The sources are shaped
// so that branch targets land immediately after fusable tails (loop
// back edges onto dec+if blocks, breaks out of them).
func TestFusionJumpTargetsLandOnBlockEntries(t *testing.T) {
	cases := map[string]string{
		"backedge onto fused tail": `
int main() {
	int s = 0;
	for (int i = 0; i < 50; i++) {
		s = s + i;
		if (s > 40) { s = s - 7; }
	}
	return s;
}`,
		"nested loops sharing header": `
int main() {
	int s = 0;
	for (int i = 0; i < 8; i++) {
		for (int j = 0; j < 8; j++) {
			if (j == i) { s = s + 1; } else { s = s + 2; }
		}
	}
	return s;
}`,
		"while with mid-loop exit": `
int main() {
	int i = 0;
	int s = 0;
	while (i < 100) {
		i = i + 3;
		if (i > 60) { return s; }
		s = s + i;
	}
	return s;
}`,
	}
	for name, src := range cases {
		diffAllVariants(t, "jump/"+name, src, 3)
	}

	// Structural check: every branch target in every fused stream is a
	// pc that the remap produced (i.e. a fused block entry), in range.
	for name, src := range cases {
		for variant, p := range buildVariants(t, src) {
			code := Compile(p)
			for _, fn := range code.funcs {
				entries := map[int32]bool{fn.fat[fn.entry]: true}
				// Recover entries from the branch targets themselves,
				// then verify each is in range and starts an instruction.
				for i := range fn.fcode {
					in := &fn.fcode[i]
					if in.gtail != 0 {
						entries[in.gtail-1] = true
					}
					switch in.op {
					case opGoto, opFDecGoto:
						entries[in.b] = true
					case opIf, opThreshold, opFIfBin, opFIfLeaf,
						opFDecIf, opFDecIfBin, opFImportThreshold:
						entries[in.b] = true
						entries[in.c] = true
					}
				}
				for pc := range entries {
					if pc < 0 || int(pc) >= len(fn.fcode) {
						t.Errorf("%s/%s/%s: fused branch target %d out of range [0,%d)",
							name, variant, fn.name, pc, len(fn.fcode))
					}
				}
			}
		}
	}
}

// TestFusionSitesAndThresholdsAtBlockEntry exercises sampled streams
// where instrumentation puts sites, guarded sites, and threshold
// checkpoints at the very start of blocks — directly adjacent to the
// fused tails of their predecessors.
func TestFusionSitesAndThresholdsAtBlockEntry(t *testing.T) {
	cases := map[string]string{
		"sites at loop entry": `
int f(int* a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + a[i]; }
	return s;
}
int main() {
	int* a = alloc(16);
	for (int i = 0; i < 16; i++) { a[i] = i; }
	return f(a, 16);
}`,
		"checkpoint-heavy recursion": `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`,
		"branchy scalar pairs": `
int main() {
	int a = 3;
	int b = 9;
	int s = 0;
	for (int i = 0; i < 40; i++) {
		if (a < b) { s = s + 1; }
		if (s != i) { b = b - 1; }
		a = a + 1;
	}
	return s;
}`,
	}
	for name, src := range cases {
		diffAllVariants(t, "entry/"+name, src, 7)
	}
}

// TestFusionShortCircuitConditions covers nested && / || conditions:
// the lowering expands them into chains of single-condition blocks, so
// fusion sees many tiny blocks whose terminators are leaf or
// comparison ifs, frequently preceded by coalesced decrements.
func TestFusionShortCircuitConditions(t *testing.T) {
	cases := map[string]string{
		"nested and-or": `
int main() {
	int s = 0;
	for (int i = 0; i < 30; i++) {
		if (i > 3 && (i < 20 || s > 50) && i != 11) { s = s + i; }
	}
	return s;
}`,
		"short-circuit with traps avoided": `
int main() {
	int* p = alloc(4);
	p[0] = 1;
	int s = 0;
	for (int i = 0; i < 12; i++) {
		if (i < 4 && p[i] != 0) { s = s + 1; }
		if (i >= 4 || p[i] == 0) { s = s + 2; }
		p[i % 4] = s;
	}
	return s;
}`,
		"or chain in while": `
int main() {
	int i = 0;
	int j = 100;
	while (i < 20 || j > 90) {
		i = i + 1;
		j = j - 1;
	}
	return i + j;
}`,
	}
	for name, src := range cases {
		diffAllVariants(t, "shortcircuit/"+name, src, 13)
	}
}

// TestFusionFuelTrapInsideSuperinstruction sweeps fuel one step at a
// time across a sampled program whose hot stream is dominated by
// superinstructions. Every fuel value makes some run die at a different
// charge — including between the two fuel-checked halves of dec+branch
// fusions and mid-batch inside assign fusions — and the step count,
// trap, counters, and profiler totals must match the unfused engines
// exactly at each one.
func TestFusionFuelTrapInsideSuperinstruction(t *testing.T) {
	sweep(t, "super", `
int main() {
	int* a = alloc(8);
	int s = 0;
	for (int i = 0; i < 8; i++) { a[i] = i * 2; }
	for (int r = 0; r < 6; r++) {
		for (int i = 0; i < 8; i++) {
			int v = a[i];
			s = s + v;
			if (s > 37) { s = s - 19; }
			a[i] = v + 1;
		}
	}
	return s;
}`)

	// A block ending in a generic (unspecialized, unbounded-charge)
	// assignment followed by its back-edge Goto: the assignment carries a
	// fused goto tail, and its expression charges can cross the fuel
	// limit before the tail's own fuel-checked step runs — the tail must
	// still trap at exactly the unfused step total.
	sweep(t, "gtail-after-unbounded-assign", `
int main() {
	int s = 1;
	int i = 0;
	while (i < 6) {
		i = i + 1;
		s = (s + i) + (s + i + 1);
	}
	return s;
}`)
}

func sweep(t *testing.T, name, src string) {
	for variant, p := range buildVariants(t, src) {
		// Find the full run length, then sweep every prefix.
		full := Run(p, Config{Engine: EngineTree, Density: 1.0 / 11, CountdownSeed: 9})
		if full.Outcome != OutcomeOK {
			t.Fatalf("%s/%s: full run failed: %v", name, variant, full.Trap)
		}
		for fuel := uint64(1); fuel <= full.Steps; fuel++ {
			conf := Config{Fuel: fuel, Density: 1.0 / 11, CountdownSeed: 9, Profile: true}
			diffEngines(t, fmt.Sprintf("%s/%s/fuel%d", name, variant, fuel), p, conf)
			// And without the profiler: that is the configuration where
			// the fused engine's in-loop fast paths are live, so the fuel
			// boundary lands inside (and right after) their batched
			// charges.
			conf.Profile = false
			diffEngines(t, fmt.Sprintf("%s/%s/noprof/fuel%d", name, variant, fuel), p, conf)
		}
	}
}

// TestFusionFormsExpectedSuperinstructions is the structural view: the
// canonical hot shapes actually fuse. A sampled loop over array
// loads/stores must contain dec+branch fusions (the one-dispatch fast
// path), fused compare-and-branch, and fused load/store arithmetic.
func TestFusionFormsExpectedSuperinstructions(t *testing.T) {
	src := `
int main() {
	int* a = alloc(32);
	int s = 0;
	for (int i = 0; i < 32; i++) { a[i] = i * 3; }
	for (int i = 0; i < 32; i++) {
		int v = a[i];
		s = s + v;
		if (s > 100) { s = s - 50; }
		a[i] = v + 1;
	}
	return s;
}`
	f, err := minic.Parse("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	uncond, err := cfg.Build(f, nil, &instrument.Schemes{Set: allSchemes})
	if err != nil {
		t.Fatal(err)
	}
	p := instrument.Sample(uncond, instrument.DefaultOptions())
	code := Compile(p)
	counts := map[copcode]int{}
	for _, fn := range code.funcs {
		for i := range fn.fcode {
			counts[fn.fcode[i].op]++
		}
	}
	for _, want := range []copcode{
		opFDecGoto, opFDecIfBin, opFAssignBinImm, opFAssignBin,
		opFAssignLoad, opFAssignCellBin, opFIfBin,
	} {
		if counts[want] == 0 {
			t.Errorf("expected fused stream to contain %v; got histogram %v", want, counts)
		}
	}
	// And fusion must leave no decrement unfused ahead of a branch: the
	// sampling fast path is one dispatch wherever the transform put the
	// coalesced dec at block end.
	if n := counts[opCountdownDec]; n > counts[opFDecGoto]+counts[opFDecIfBin] {
		t.Errorf("unfused CountdownDec count %d suspiciously high: %v", n, counts)
	}
}
