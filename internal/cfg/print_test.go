package cfg

import (
	"strings"
	"testing"

	"cbi/internal/minic"
)

func TestFormatInstrAllKinds(t *testing.T) {
	v := &Var{Name: "x", Slot: 0}
	site := &Site{ID: 3, Kind: SiteBounds, Text: "check p[i]"}
	cases := map[Instr]string{
		&Assign{LV: &VarRef{V: v}, X: &Const{V: 5}}:                     "x = 5",
		&Call{Dst: v, Callee: "f", Args: []Expr{&Const{V: 1}, &Null{}}}: "x = f(1, null)",
		&Call{Callee: "g"}:       "g()",
		&SiteInstr{Site: site}:   "site#3 bounds {check p[i]}",
		&GuardedSite{Site: site}: "if (--countdown == 0) { site#3 bounds {check p[i]}; countdown = next() }",
		&CountdownDec{N: 4}:      "countdown -= 4",
		&CDImport{}:              "countdown = global_countdown",
		&CDExport{}:              "global_countdown = countdown",
	}
	for in, want := range cases {
		if got := FormatInstr(in); got != want {
			t.Errorf("FormatInstr: got %q, want %q", got, want)
		}
	}
}

func TestFormatTermAllKinds(t *testing.T) {
	b0 := &Block{ID: 0}
	b1 := &Block{ID: 1}
	cases := map[Term]string{
		&Goto{To: b0}:                               "goto b0",
		&Goto{To: b1, BackEdge: true}:               "goto b1 (back edge)",
		&If{Cond: &Const{V: 1}, Then: b0, Else: b1}: "if 1 goto b0 else b1",
		&Ret{}:                "return",
		&Ret{X: &Const{V: 2}}: "return 2",
		&Threshold{Weight: 5, Fast: b0, Slow: b1}: "if countdown > 5 goto b0 (fast) else b1 (slow)",
		nil: "<no terminator>",
	}
	for term, want := range cases {
		if got := FormatTerm(term); got != want {
			t.Errorf("FormatTerm: got %q, want %q", got, want)
		}
	}
}

func TestFormatExprAllKinds(t *testing.T) {
	v := &Var{Name: "y"}
	cases := map[Expr]string{
		&Const{V: -3}:                    "-3",
		&StrConst{S: "hi"}:               `"hi"`,
		&Null{}:                          "null",
		&VarUse{V: v}:                    "y",
		&Un{Op: UnNot, X: &VarUse{V: v}}: "!y",
		&Bin{Op: BinAdd, X: &Const{V: 1}, Y: &Const{V: 2}}: "(1 + 2)",
		&Load{Ptr: &VarUse{V: v}, Idx: &Const{V: 0}}:       "y[0]",
		&NewObj{StructName: "node"}:                        "new node",
	}
	for e, want := range cases {
		if got := FormatExpr(e); got != want {
			t.Errorf("FormatExpr: got %q, want %q", got, want)
		}
	}
	if got := FormatLValue(&CellRef{Ptr: &VarUse{V: v}, Idx: &Const{V: 1}}); got != "y[1]" {
		t.Errorf("FormatLValue: %q", got)
	}
}

func TestSiteKindStrings(t *testing.T) {
	want := map[SiteKind]string{
		SiteReturns:    "returns",
		SiteScalarPair: "scalar-pairs",
		SiteNullCheck:  "null-check",
		SiteBranch:     "branches",
		SiteBounds:     "bounds",
		SiteAssert:     "asserts",
		SiteKind(99):   "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d: %q", k, k.String())
		}
	}
}

func TestVarString(t *testing.T) {
	if (&Var{Name: "abc"}).String() != "abc" {
		t.Error("Var.String")
	}
}

func TestDumpSampledFunctionMentionsEverything(t *testing.T) {
	f, err := minic.Parse("t.mc", `
int g() { int* p = alloc(2); p[0] = 1; return p[0]; }
int main() { int a = g(); int b = g(); return a + b; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(f, nil, &testInstrumenter{})
	if err != nil {
		t.Fatal(err)
	}
	// Manually mark main as using a local countdown and dump.
	p.Funcs["main"].LocalCountdown = true
	dump := DumpFunc(p.Funcs["main"])
	if !strings.Contains(dump, "[local countdown]") {
		t.Errorf("dump: %s", dump)
	}
}

// ----------------------------------------------------------------------------
// Lowering edge cases

func TestLowerErrors(t *testing.T) {
	srcs := []string{
		// void call used as a value.
		"void v() { } int main() { int x = v(); return x; }",
	}
	for _, src := range srcs {
		f, err := minic.Parse("t.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(f, nil, nil); err == nil {
			t.Errorf("%q: want lowering error", src)
		}
	}
}

func TestLowerStringAndCharHandling(t *testing.T) {
	p := build(t, `
string greeting = "hey";
int main() {
	string s = greeting;
	if (streq(s, "hey") && strget(s, 0) == 'h') { return 0; }
	return 1;
}
`)
	if p.Funcs["main"] == nil {
		t.Fatal("main missing")
	}
}

func TestLowerDerefStoreAndLoad(t *testing.T) {
	p := build(t, `
int main() {
	int* p = alloc(1);
	*p = 9;
	int v = *p;
	*p += 2;
	return v + *p;
}
`)
	res := p.Funcs["main"]
	if res == nil {
		t.Fatal("main missing")
	}
}

func TestLowerNestedCallsInConditions(t *testing.T) {
	p := build(t, `
int f(int x) { return x * 2; }
int main() {
	if (f(2) > 3 && f(1) < f(3)) { return 1; }
	while (f(0) > 0) { return 2; }
	for (int i = f(1); i < f(4); i += f(1)) { }
	return 0;
}
`)
	// All calls must be flattened to Call instrs; terms stay pure.
	for _, b := range p.Funcs["main"].Blocks {
		if ifT, ok := b.Term.(*If); ok && hasAndOr(ifT.Cond) {
			t.Error("short-circuit leaked")
		}
	}
}

func TestLowerGlobalCompoundAssign(t *testing.T) {
	p := build(t, `
int g = 10;
void bump() { g += 5; g++; }
int main() { bump(); return g; }
`)
	if p.Funcs["bump"] == nil {
		t.Fatal("bump missing")
	}
}

func TestIsLiteralForms(t *testing.T) {
	cases := []struct {
		src string
		ok  bool
	}{
		{"int g = 1;", true},
		{"int g = -1;", true},
		{"string g = \"s\";", true},
		{"int* g = null;", true},
		{"int g = 1 + 2;", false},
	}
	for _, tc := range cases {
		f, err := minic.Parse("t.mc", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Build(f, nil, nil)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err=%v, want ok=%v", tc.src, err, tc.ok)
		}
	}
}
