package interp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cbi/internal/instrument"
	"cbi/internal/minic"
	"cbi/internal/sampler"
)

// TestValueLayout pins the two-word Value (DESIGN §15.1): an integer and
// a pointer that carries the kind, 16 bytes for every local, heap cell and
// operand; and an object header, which each heap object and non-empty
// string costs, of at most 64 bytes.
func TestValueLayout(t *testing.T) {
	if n := reflect.TypeOf(Value{}).NumField(); n != 2 {
		t.Errorf("Value has %d fields, want 2", n)
	}
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("Value is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Object{}); n > 64 {
		t.Errorf("Object is %d bytes, want at most 64", n)
	}
	if (Value{}) != IntVal(0) {
		t.Error("the zero Value is not IntVal(0)")
	}
	if v := PtrVal(&Object{}, 0); v.Kind() != KPtr {
		t.Errorf("a pointer to the zero Object is a %v, want a heap pointer", v.Kind())
	}
}

func TestValueTruthy(t *testing.T) {
	obj := &Object{ID: 1, Data: make([]Value, 1), Size: 1}
	cases := []struct {
		v    Value
		want bool
	}{
		{IntVal(0), false},
		{IntVal(-2), true},
		{StrVal(""), false},
		{StrVal("x"), true},
		{NullVal(), false},
		{PtrVal(obj, 0), true},
	}
	for _, tc := range cases {
		if tc.v.Truthy() != tc.want {
			t.Errorf("%v.Truthy() != %v", tc.v, tc.want)
		}
	}
}

func TestValueSign(t *testing.T) {
	obj := &Object{ID: 1, Data: make([]Value, 1), Size: 1}
	cases := []struct {
		v    Value
		want int
	}{
		{IntVal(-9), -1},
		{IntVal(0), 0},
		{IntVal(9), 1},
		{NullVal(), 0},
		{PtrVal(obj, 0), 1},
		{StrVal(""), 0},
		{StrVal("a"), 1},
	}
	for _, tc := range cases {
		if tc.v.Sign() != tc.want {
			t.Errorf("%v.Sign() = %d, want %d", tc.v, tc.v.Sign(), tc.want)
		}
	}
}

func TestValueEqualAndLess(t *testing.T) {
	a := &Object{ID: 1, Data: make([]Value, 4), Size: 4}
	b := &Object{ID: 2, Data: make([]Value, 4), Size: 4}
	if !PtrVal(a, 1).Equal(PtrVal(a, 1)) || PtrVal(a, 1).Equal(PtrVal(a, 2)) || PtrVal(a, 0).Equal(PtrVal(b, 0)) {
		t.Error("pointer equality")
	}
	if !NullVal().Equal(NullVal()) || NullVal().Equal(PtrVal(a, 0)) {
		t.Error("null equality")
	}
	if !NullVal().Equal(IntVal(0)) || !IntVal(0).Equal(NullVal()) {
		t.Error("null/zero equality (C-style)")
	}
	if !StrVal("a").Equal(StrVal("a")) || StrVal("a").Equal(StrVal("b")) {
		t.Error("string equality")
	}
	if StrVal("a").Equal(IntVal(1)) {
		t.Error("cross-kind equality")
	}

	if !NullVal().Less(PtrVal(a, 0)) {
		t.Error("null < pointer")
	}
	if !PtrVal(a, 0).Less(PtrVal(a, 3)) || !PtrVal(a, 0).Less(PtrVal(b, 0)) {
		t.Error("pointer ordering")
	}
	if !StrVal("a").Less(StrVal("b")) || StrVal("b").Less(StrVal("a")) {
		t.Error("string ordering")
	}
	if !IntVal(-1).Less(NullVal()) || IntVal(1).Less(NullVal()) {
		t.Error("int vs null ordering")
	}
	if !NullVal().Less(IntVal(1)) || NullVal().Less(IntVal(-1)) {
		t.Error("null vs int ordering")
	}
	// Less is a strict order on ints: irreflexive and transitive-ish.
	err := quick.Check(func(x, y int64) bool {
		vx, vy := IntVal(x), IntVal(y)
		if x == y {
			return !vx.Less(vy) && !vy.Less(vx)
		}
		return vx.Less(vy) != vy.Less(vx)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	obj := &Object{ID: 7, Data: make([]Value, 1), Size: 1}
	cases := map[string]Value{
		"42":      IntVal(42),
		"hi":      StrVal("hi"),
		"null":    NullVal(),
		"ptr#7+2": PtrVal(obj, 2),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind(), v.String(), want)
		}
	}
}

func TestZeroFor(t *testing.T) {
	if ZeroFor(minic.IntType).Kind() != KInt {
		t.Error("int zero")
	}
	if ZeroFor(minic.PtrTo(minic.IntType)).Kind() != KNull {
		t.Error("ptr zero")
	}
	if ZeroFor(minic.StrType).Kind() != KStr {
		t.Error("str zero")
	}
	if ZeroFor(nil).Kind() != KInt {
		t.Error("nil type zero")
	}
}

func TestTrapStringsAndErrors(t *testing.T) {
	kinds := []TrapKind{
		TrapNullDeref, TrapOutOfBounds, TrapUseAfterFree, TrapDivByZero,
		TrapAssertFailed, TrapAbort, TrapStackOverflow, TrapFuelExhausted, TrapBadProgram,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown trap" || seen[s] {
			t.Errorf("kind %d: %q", k, s)
		}
		seen[s] = true
	}
	if TrapKind(99).String() != "unknown trap" {
		t.Error("unknown kind")
	}
	tr := &Trap{Kind: TrapAbort, Msg: "boom"}
	if !strings.Contains(tr.Error(), "abort") || !strings.Contains(tr.Error(), "boom") {
		t.Errorf("Error(): %q", tr.Error())
	}
	bare := &Trap{Kind: TrapDivByZero}
	if !strings.Contains(bare.Error(), "division by zero") {
		t.Errorf("Error(): %q", bare.Error())
	}
}

func TestBuiltinEdgeCases(t *testing.T) {
	// abort with a message.
	res := run(t, `int main() { abort("bad state"); return 0; }`, Config{})
	if res.Trap == nil || !strings.Contains(res.Trap.Msg, "bad state") {
		t.Errorf("abort message: %+v", res.Trap)
	}
	// min/max.
	res = run(t, `int main() { return min(3, max(7, 5)); }`, Config{})
	if res.ExitCode != 3 {
		t.Errorf("min/max: %d", res.ExitCode)
	}
	// strget out of bounds traps.
	res = run(t, `int main() { return strget("ab", 5); }`, Config{})
	if res.Outcome != OutcomeCrash || res.Trap.Kind != TrapOutOfBounds {
		t.Errorf("strget oob: %+v", res.Trap)
	}
	// rand(0) is 0.
	res = run(t, `int main() { return rand(0); }`, Config{})
	if res.ExitCode != 0 {
		t.Error("rand(0)")
	}
	// alloc with negative size is a program error.
	res = run(t, `int main() { int* p = alloc(0 - 4); return 0; }`, Config{})
	if res.Outcome != OutcomeCrash {
		t.Error("alloc(-4) should trap")
	}
	// free(null) is harmless.
	res = run(t, `int main() { free(null); return 0; }`, Config{})
	if res.Outcome != OutcomeOK {
		t.Error("free(null)")
	}
}

func TestPeriodicSourceOverride(t *testing.T) {
	// Install a periodic countdown source directly: with period 1 every
	// site fires, like density 1.
	p := instrumented(t, probeProgram, instrument.SchemeSet{Bounds: true})
	sp := instrument.Sample(p, instrument.DefaultOptions())
	res := Run(sp, Config{Source: &sampler.Periodic{Period: 1}})
	if res.Outcome != OutcomeOK {
		t.Fatal(res.Trap)
	}
	if res.SamplesTaken != 6464 {
		t.Errorf("period-1 sampling took %d samples, want all 6464", res.SamplesTaken)
	}
}

func TestVMAccessors(t *testing.T) {
	p := instrumented(t, probeProgram, instrument.SchemeSet{Bounds: true})
	vm := New(p, Config{})
	if vm.Rand() == nil || vm.Out() == nil {
		t.Error("accessors")
	}
	if len(vm.Counters()) != p.NumCounters {
		t.Error("counters length")
	}
	v := vm.Alloc(5)
	if v.Kind() != KPtr || v.Obj().Size != 5 || len(v.Obj().Data) != 8 {
		t.Errorf("Alloc: %+v", v.Obj())
	}
}

func TestCrashReportStillCarriesCounters(t *testing.T) {
	// Counters sampled before the crash must survive into the result —
	// that is the whole point of §3.2's crashed-run reports.
	src := `
int main() {
	int* p = alloc(4);
	for (int i = 0; i < 4; i++) { p[i] = i; }
	int* q = null;
	return q[0];
}`
	p := instrumented(t, src, instrument.SchemeSet{Bounds: true})
	res := Run(p, Config{})
	if res.Outcome != OutcomeCrash {
		t.Fatal("should crash")
	}
	if res.SamplesTaken == 0 {
		t.Error("probes before the crash must have fired")
	}
	// The final bounds probe saw the null pointer: its "pointer is null"
	// counter must be set.
	var nullObs uint64
	for _, s := range p.Sites {
		nullObs += res.Counters[s.CounterBase]
	}
	if nullObs == 0 {
		t.Error("null observation not recorded before crash")
	}
}
