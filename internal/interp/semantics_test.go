package interp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbi/internal/cfg"
	"cbi/internal/minic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The value semantics every engine shares — Equal, Cmp, Less, Truthy,
// Sign, String, unop, binop, resolveCell and the probe buckets — pinned as
// a text table over a fixed set of operands. The engine differentials
// compare engines with each other and so cannot see a drift in code they
// all share; this table is the oracle for that code. Regenerate with
// go test ./internal/interp -run TestValueSemanticsGolden -update, and
// justify every changed line.

// goldenOperands is every kind of value once or more: three ints, null,
// the empty and a non-empty string, pointers into two objects at offsets
// 0 and 3, and a pointer into a freed object.
func goldenOperands() (names []string, vals []Value) {
	p := &Object{ID: 1, Data: make([]Value, 8), Size: 5}
	q := &Object{ID: 2, Data: make([]Value, 4), Size: 4}
	freed := &Object{ID: 3, Data: make([]Value, 4), Size: 2, Freed: true}
	names = []string{"-1", "0", "7", "null", `""`, `"ab"`, "p+0", "p+3", "q+0", "freed"}
	vals = []Value{
		IntVal(-1), IntVal(0), IntVal(7), NullVal(), StrVal(""), StrVal("ab"),
		PtrVal(p, 0), PtrVal(p, 3), PtrVal(q, 0), PtrVal(freed, 0),
	}
	return names, vals
}

// renderResult spells a (Value, error) pair: the value, or the trap.
func renderResult(v Value, err error) string {
	if err != nil {
		tr := err.(*Trap)
		return fmt.Sprintf("trap(%s: %s)", tr.Kind, tr.Msg)
	}
	return fmt.Sprintf("%q", v.String())
}

// probeBucket fires a probe of the given kind on args and names the
// counter it bumped (or the trap it raised).
func probeBucket(kind cfg.SiteKind, args ...Value) string {
	vm := &VM{counters: make([]uint64, 3)}
	if err := vm.probe(&cfg.Site{Kind: kind}, args); err != nil {
		return renderResult(Value{}, err)
	}
	for i, n := range vm.counters {
		if n != 0 {
			return fmt.Sprint(i)
		}
	}
	return "-"
}

func renderValueSemantics(t *testing.T) []byte {
	names, vals := goldenOperands()
	var b bytes.Buffer
	fmt.Fprintln(&b, "# unary: operand | String Truthy Sign | -x !x | returns nullcheck branch")
	for i, v := range vals {
		neg, nerr := unop(cfg.UnNeg, v)
		not, terr := unop(cfg.UnNot, v)
		fmt.Fprintf(&b, "%-6s | %q %v %d | %s %s | %s %s %s\n", names[i],
			v.String(), v.Truthy(), v.Sign(),
			renderResult(neg, nerr), renderResult(not, terr),
			probeBucket(cfg.SiteReturns, v), probeBucket(cfg.SiteNullCheck, v), probeBucket(cfg.SiteBranch, v))
	}
	fmt.Fprintln(&b, "# binary: a b | Equal Cmp Less | cell | scalar-pairs bounds | binop per operator")
	pos := minic.Pos{Line: 1, Col: 1}
	for i, a := range vals {
		for j, c := range vals {
			cell := "ok"
			if _, err := resolveCell(a, c, pos); err != nil {
				cell = renderResult(Value{}, err)
			}
			// cellAt is resolveCell's in-place fast path: it must agree.
			if _, err := cellAt(&a, &c, pos); (err == nil) != (cell == "ok") {
				t.Errorf("%s[%s]: cellAt err=%v, resolveCell %s", names[i], names[j], err, cell)
			}
			fmt.Fprintf(&b, "%-6s %-6s | %v %d %v | %s | %s %s |", names[i], names[j],
				a.Equal(c), a.Cmp(c), a.Less(c), cell,
				probeBucket(cfg.SiteScalarPair, a, c), probeBucket(cfg.SiteBounds, a, c))
			for op := cfg.BinAdd; op <= cfg.BinGe; op++ {
				v, err := binop(op, a, c, pos)
				got := renderResult(v, err)
				// binLeaves is binop's all-int fast path: it must agree.
				if fv, ferr := binLeaves(op, &a, &c, pos); renderResult(fv, ferr) != got {
					t.Errorf("%s %s %s: binLeaves %s, binop %s", names[i], op, names[j], renderResult(fv, ferr), got)
				}
				fmt.Fprintf(&b, " %s=%s", op, got)
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestValueSemanticsGolden(t *testing.T) {
	got := renderValueSemantics(t)
	path := filepath.Join("testdata", "value_semantics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("value semantics drifted from %s at line %d\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("value semantics drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// uncheckedIntSource hands null, "", "ab" and an interior pointer to every
// builtin and operator that reads an integer operand without checking its
// kind. Each of them reads such an operand as 0.
const uncheckedIntSource = `
void show(int x) {
	printi(x);
	printi(-x);
	print(min(x, 1), " ", max(x, 1), " ", min(1, x), " ", max(1, x), "\n");
	printi(rand(x));
	printi(strget("ab", x));
}
int main() {
	int* p = alloc(8);
	show(null);
	show("");
	show("ab");
	show(p + 3);
	return 0;
}`

func TestUncheckedIntReadsSeeZero(t *testing.T) {
	const want = "0\n0\nnull 1 null 1\n0\n97\n" +
		"0\n0\n 1  1\n0\n97\n" +
		"0\n0\nab 1 ab 1\n0\n97\n" +
		"0\n0\nptr#1+3 1 ptr#1+3 1\n0\n97\n"
	p := buildProg(t, uncheckedIntSource, nil)
	for _, eng := range []Engine{EngineFused, EngineCompiled, EngineTree} {
		res := Run(p, Config{Engine: eng, Seed: 5})
		if res.Outcome != OutcomeOK || res.Output != want {
			t.Errorf("%s: trap %v, output\n%q\nwant\n%q", eng, res.Trap, res.Output, want)
		}
	}
}
