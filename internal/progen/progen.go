// Package progen generates random, well-formed, terminating MiniC
// programs for differential testing: the sampling transformation must
// preserve the semantics of *every* program, so the test suite compiles
// random programs in baseline, unconditional, and sampled configurations
// and requires identical observable behaviour.
//
// Generated programs are deterministic (no rand() calls), loop with
// constant bounds, guard every division, and keep heap indices in range,
// so a generated program never traps and always terminates — differences
// between configurations are therefore always transformation bugs.
package progen

import (
	"fmt"
	"math/rand"
	"strings"

	"cbi/internal/rng"
)

// Config bounds the generated program.
type Config struct {
	Funcs        int // helper functions (besides main), default 3
	MaxStmts     int // statements per block, default 5
	MaxDepth     int // nesting depth, default 3
	MaxLoopTrip  int // constant loop bound, default 8
	Arrays       bool
	PtrsAndNulls bool
}

// DefaultConfig returns the standard generator shape.
func DefaultConfig() Config {
	return Config{Funcs: 3, MaxStmts: 5, MaxDepth: 3, MaxLoopTrip: 8, Arrays: true, PtrsAndNulls: true}
}

// Generate produces a MiniC source string from the seed.
func Generate(seed int64, conf Config) string {
	if conf.Funcs == 0 {
		conf = DefaultConfig()
	}
	g := &gen{rng: rng.New(seed), conf: conf, protected: map[string]bool{}}
	return g.program()
}

type gen struct {
	rng  *rand.Rand
	conf Config
	sb   strings.Builder

	funcs     []string        // helper function names, arity 2 (int, int) -> int
	vars      []string        // in-scope int variables
	protected map[string]bool // loop induction variables: never assigned
	arrs      []string        // in-scope int* arrays (each of size arrSize)
	indent    int
	tmp       int
}

const arrSize = 16

func (g *gen) w(format string, args ...any) {
	g.sb.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *gen) program() string {
	for i := 0; i < g.conf.Funcs; i++ {
		g.funcs = append(g.funcs, fmt.Sprintf("helper%d", i))
	}
	// A couple of globals participate in the mix.
	g.w("int gA = 3;")
	g.w("int gB = -7;")
	g.sb.WriteByte('\n')
	for _, name := range g.funcs {
		g.emitHelper(name)
		g.sb.WriteByte('\n')
	}
	g.emitMain()
	return g.sb.String()
}

func (g *gen) emitHelper(name string) {
	g.vars = []string{"a", "b", "gA", "gB"}
	g.arrs = nil
	g.tmp = 0
	g.w("int %s(int a, int b) {", name)
	g.indent++
	g.block(g.conf.MaxDepth, name)
	g.w("return %s;", g.expr(2))
	g.indent--
	g.w("}")
}

func (g *gen) emitMain() {
	g.vars = []string{"gA", "gB"}
	g.arrs = nil
	g.tmp = 0
	g.w("int main() {")
	g.indent++
	g.w("int acc = 0;")
	g.vars = append(g.vars, "acc")
	if g.conf.Arrays {
		g.w("int* buf = alloc(%d);", arrSize)
		g.arrs = append(g.arrs, "buf")
		g.w("for (int i0 = 0; i0 < %d; i0++) { buf[i0] = i0 * 3 - 5; }", arrSize)
	}
	g.block(g.conf.MaxDepth, "main")
	// Make every variable observable.
	for _, v := range g.vars {
		g.w("acc = acc * 31 + %s;", v)
	}
	if len(g.arrs) > 0 {
		g.w("for (int i9 = 0; i9 < %d; i9++) { acc = acc * 7 + buf[i9]; }", arrSize)
	}
	g.w("printi(acc %% 100000);")
	g.w("return acc %% 251;")
	g.indent--
	g.w("}")
}

// block emits 1..MaxStmts statements.
func (g *gen) block(depth int, fn string) {
	n := 1 + g.rng.Intn(g.conf.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(depth, fn)
	}
}

func (g *gen) newVar() string {
	g.tmp++
	name := fmt.Sprintf("v%d", g.tmp)
	return name
}

func (g *gen) pick(list []string) string { return list[g.rng.Intn(len(list))] }

// pickAssignable picks a variable that is safe to overwrite (not a loop
// induction variable, which would break termination).
func (g *gen) pickAssignable() string {
	for tries := 0; tries < 10; tries++ {
		v := g.pick(g.vars)
		if !g.protected[v] {
			return v
		}
	}
	return "gA"
}

// nestedBlock emits a block in a child scope: variables declared inside
// (and the extra names, e.g. a loop induction variable) are invisible to
// statements emitted after it.
func (g *gen) nestedBlock(depth int, fn string, extra []string) {
	saved := append([]string(nil), g.vars...)
	g.vars = append(g.vars, extra...)
	g.block(depth, fn)
	g.vars = saved
}

func (g *gen) stmt(depth int, fn string) {
	choice := g.rng.Intn(10)
	switch {
	case choice < 3: // declaration with initializer
		v := g.newVar()
		g.w("int %s = %s;", v, g.expr(2))
		g.vars = append(g.vars, v)
	case choice < 5: // assignment (possibly compound)
		v := g.pickAssignable()
		switch g.rng.Intn(3) {
		case 0:
			g.w("%s = %s;", v, g.expr(2))
		case 1:
			g.w("%s += %s;", v, g.expr(1))
		default:
			g.w("%s++;", v)
		}
	case choice < 6 && len(g.arrs) > 0: // array store with safe index
		a := g.pick(g.arrs)
		g.w("%s[(%s %% %d + %d) %% %d] = %s;", a, g.expr(1), arrSize, arrSize, arrSize, g.expr(2))
	case choice < 7 && depth > 0: // if/else
		g.w("if (%s) {", g.cond())
		g.indent++
		g.nestedBlock(depth-1, fn, nil)
		g.indent--
		if g.rng.Intn(2) == 0 {
			g.w("} else {")
			g.indent++
			g.nestedBlock(depth-1, fn, nil)
			g.indent--
		}
		g.w("}")
	case choice < 8 && depth > 0: // constant-bound for loop
		iv := g.newVar()
		trip := 1 + g.rng.Intn(g.conf.MaxLoopTrip)
		g.w("for (int %s = 0; %s < %d; %s++) {", iv, iv, trip, iv)
		g.indent++
		g.protected[iv] = true
		g.nestedBlock(depth-1, fn, []string{iv})
		delete(g.protected, iv)
		if g.rng.Intn(4) == 0 {
			g.w("if (%s == %d) { continue; }", iv, g.rng.Intn(trip+1))
		}
		if g.rng.Intn(4) == 0 {
			g.w("if (%s > %d) { break; }", iv, g.rng.Intn(trip+1))
		}
		g.indent--
		g.w("}")
	case choice < 9 && fn == "main" && len(g.funcs) > 0: // helper call
		v := g.newVar()
		g.w("int %s = %s(%s, %s);", v, g.pick(g.funcs), g.expr(1), g.expr(1))
		g.vars = append(g.vars, v)
	default: // pointer null-dance (guarded) or plain assignment
		if g.conf.PtrsAndNulls && len(g.arrs) > 0 && g.rng.Intn(2) == 0 {
			p := g.newVar()
			a := g.pick(g.arrs)
			g.w("int* %s = %s;", p, a)
			g.w("if (%s != null && %s[0] > %d) { %s = %s; }",
				p, p, g.rng.Intn(20)-10, g.pickAssignable(), g.expr(1))
		} else {
			g.w("%s = %s;", g.pickAssignable(), g.expr(2))
		}
	}
}

// expr generates a pure expression of bounded depth. Division is always
// guarded by "% k + k" denominators so it cannot trap.
func (g *gen) expr(depth int) string {
	if depth == 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(41)-20)
		default:
			return g.pick(g.vars)
		}
	}
	a := g.expr(depth - 1)
	b := g.expr(depth - 1)
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		k := 2 + g.rng.Intn(9)
		return fmt.Sprintf("(%s / ((%s %% %d) * (%s %% %d) + %d))", a, b, k, b, k, k*k+1)
	case 4:
		return fmt.Sprintf("(%s %% %d)", a, 2+g.rng.Intn(20))
	case 5:
		return fmt.Sprintf("-(%s)", a)
	case 6:
		if len(g.arrs) > 0 {
			return fmt.Sprintf("%s[(%s %% %d + %d) %% %d]", g.pick(g.arrs), a, arrSize, arrSize, arrSize)
		}
		return fmt.Sprintf("(%s + %s)", a, b)
	default:
		return fmt.Sprintf("(%s)", g.cond())
	}
}

// cond generates a boolean-ish expression, possibly short-circuiting.
func (g *gen) cond() string {
	a := g.expr(1)
	b := g.expr(1)
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	c := fmt.Sprintf("%s %s %s", a, ops[g.rng.Intn(len(ops))], b)
	switch g.rng.Intn(4) {
	case 0:
		d := fmt.Sprintf("%s %s %s", g.expr(1), ops[g.rng.Intn(len(ops))], g.expr(1))
		return fmt.Sprintf("%s && %s", c, d)
	case 1:
		d := fmt.Sprintf("%s %s %s", g.expr(1), ops[g.rng.Intn(len(ops))], g.expr(1))
		return fmt.Sprintf("%s || %s", c, d)
	default:
		return c
	}
}
