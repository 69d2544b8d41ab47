package interp

import (
	"fmt"

	"cbi/internal/cfg"
)

// stdBuiltins is the set of builtins callBuiltin handles before
// consulting host intrinsics. Membership is decided at compile time so
// the compiled engine knows which calls may retain their argument slice
// (host intrinsics) and which can share the scratch buffer.
var stdBuiltins = map[string]bool{
	"print": true, "printi": true, "alloc": true, "free": true,
	"streq": true, "strlen": true, "strget": true, "rand": true,
	"abort": true, "assert": true, "min": true, "max": true,
}

// Compile lowers a CFG program to the compiled bytecode form. The result
// is immutable and safe to share across concurrent runs; harnesses that
// execute the same program many times (the fleet, benchmarks) should
// compile once and reuse it.
func Compile(p *cfg.Program) *Compiled {
	c := &Compiled{prog: p, funcs: make(map[string]*compiledFunc, len(p.Funcs))}
	// Shells first, so calls resolve forward and mutually recursive
	// references to stable pointers.
	for _, fn := range p.FuncList {
		c.funcs[fn.Name] = &compiledFunc{name: fn.Name}
	}
	for name, fn := range p.Funcs {
		if c.funcs[name] == nil { // registered outside FuncList
			c.funcs[name] = &compiledFunc{name: fn.Name}
		}
	}
	for _, fn := range p.FuncList {
		c.compileFunc(fn, c.funcs[fn.Name])
	}
	for name, fn := range p.Funcs {
		if c.funcs[name].code == nil {
			c.compileFunc(fn, c.funcs[name])
		}
	}
	c.main = c.funcs["main"]
	return c
}

// funcCompiler accumulates one function's instruction stream and
// expression node pool.
type funcCompiler struct {
	c     *Compiled
	nodes []enode
	pcOf  map[*cfg.Block]int
	bad   int32 // pc of the trailing opBadTerm block
}

func (c *Compiled) compileFunc(fn *cfg.Func, out *compiledFunc) {
	out.localCountdown = fn.LocalCountdown
	out.zero = make([]Value, len(fn.Locals))
	for i, l := range fn.Locals {
		out.zero[i] = ZeroFor(l.Type)
	}
	out.paramSlots = make([]int32, len(fn.Params))
	for i, p := range fn.Params {
		out.paramSlots[i] = int32(p.Slot)
	}

	// Lay out every block reachable from the entry (the tree walker
	// follows block pointers, so the Blocks list is not authoritative),
	// in discovery order. Each block contributes its instructions plus
	// exactly one terminator op, preserving the walker's one-step-per-
	// terminator charge even for fall-through gotos. A last block holding
	// only opBadTerm is where a missing entry and jump targets the walk
	// did not find (see pc) land: a trap, in both streams.
	fc := &funcCompiler{c: c, pcOf: make(map[*cfg.Block]int)}
	var blocks, queue []*cfg.Block
	seen := map[*cfg.Block]bool{fn.Entry: true}
	if fn.Entry != nil {
		queue = append(queue, fn.Entry)
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		blocks = append(blocks, b)
		for _, s := range cfg.Succs(b.Term) {
			if s != nil && !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	pc := 0
	for _, b := range blocks {
		fc.pcOf[b] = pc
		pc += len(b.Instrs) + 1
	}
	fc.bad = int32(pc)
	code := make([]cinstr, 0, pc+1)
	for _, b := range blocks {
		for _, in := range b.Instrs {
			code = append(code, fc.instr(in))
		}
		code = append(code, fc.term(b.Term))
	}
	out.code = append(code, cinstr{op: opBadTerm})
	out.nodes = fc.nodes
	out.entry = int(fc.pc(fn.Entry))

	// Second pass: peephole-fuse the stream for the fast loop.
	starts := make([]int, 0, len(blocks)+1)
	for _, b := range blocks {
		starts = append(starts, fc.pcOf[b])
	}
	fuseFunc(out, append(starts, int(fc.bad)))

	// With the streams final, prove (or refuse) the prologue zero-copy
	// elision; see definite.go.
	out.skipZero = computeSkipZero(out)
}

func (fc *funcCompiler) instr(in cfg.Instr) cinstr {
	switch x := in.(type) {
	case *cfg.Assign:
		switch lv := x.LV.(type) {
		case *cfg.VarRef:
			op := opAssignLocal
			if lv.V.Global {
				op = opAssignGlobal
			}
			return cinstr{op: op, slot: int32(lv.V.Slot), a: fc.expr(x.X), pos: x.Pos}
		case *cfg.CellRef:
			// Evaluation order (X, Ptr, Idx) and the Assign position for
			// cell traps both mirror the tree walker's store path.
			return cinstr{op: opAssignCell,
				a: fc.expr(x.X), b: fc.expr(lv.Ptr), c: fc.expr(lv.Idx), pos: x.Pos}
		default:
			// Unknown lvalues still evaluate X before trapping in the
			// walker, but no such lvalue is constructible outside cfg;
			// compile to a plain trap.
			return cinstr{op: opBad, name: "unknown lvalue", pos: x.Pos}
		}
	case *cfg.Call:
		args := make([]int32, len(x.Args))
		for i, a := range x.Args {
			args[i] = fc.expr(a)
		}
		in := cinstr{slot: -1, args: args, name: x.Callee, pos: x.Pos}
		if x.Dst != nil {
			in.slot = int32(x.Dst.Slot)
			in.dstGlobal = x.Dst.Global
		}
		if x.Builtin {
			in.op = opCallBuiltin
			in.fresh = !stdBuiltins[x.Callee]
		} else {
			in.op = opCall
			in.callee = fc.c.funcs[x.Callee] // nil → runtime "unknown function" trap
		}
		return in
	case *cfg.SiteInstr:
		return cinstr{op: opSite, site: x.Site, args: fc.siteArgs(x.Site)}
	case *cfg.GuardedSite:
		return cinstr{op: opGuardedSite, site: x.Site, args: fc.siteArgs(x.Site)}
	case *cfg.CountdownDec:
		return cinstr{op: opCountdownDec, slot: int32(x.N)}
	case *cfg.CDImport:
		return cinstr{op: opCDImport}
	case *cfg.CDExport:
		return cinstr{op: opCDExport}
	default:
		return cinstr{op: opBad, name: fmt.Sprintf("unknown instruction %T", in)}
	}
}

func (fc *funcCompiler) siteArgs(s *cfg.Site) []int32 {
	args := make([]int32, len(s.Args))
	for i, a := range s.Args {
		args[i] = fc.expr(a)
	}
	return args
}

func (fc *funcCompiler) term(t cfg.Term) cinstr {
	switch x := t.(type) {
	case *cfg.Goto:
		return cinstr{op: opGoto, b: fc.pc(x.To)}
	case *cfg.If:
		return cinstr{op: opIf, a: fc.expr(x.Cond), b: fc.pc(x.Then), c: fc.pc(x.Else)}
	case *cfg.Ret:
		if x.X == nil {
			return cinstr{op: opRetVoid}
		}
		return cinstr{op: opRet, a: fc.expr(x.X)}
	case *cfg.Threshold:
		return cinstr{op: opThreshold, slot: int32(x.Weight), b: fc.pc(x.Fast), c: fc.pc(x.Slow)}
	default:
		return cinstr{op: opBadTerm}
	}
}

func (fc *funcCompiler) pc(b *cfg.Block) int32 {
	pc, ok := fc.pcOf[b]
	if !ok {
		// Unreachable but for a missing entry: every terminator target was
		// discovered by the layout walk. Kept as a defensive trap rather
		// than a panic.
		return fc.bad
	}
	return int32(pc)
}

// expr lowers one expression tree into the node pool and returns its
// root index. Node indices are allocated pre-order (parent before
// children), matching the walker's charge order under evalC.
func (fc *funcCompiler) expr(e cfg.Expr) int32 {
	i := int32(len(fc.nodes))
	fc.nodes = append(fc.nodes, enode{})
	switch x := e.(type) {
	case *cfg.Const:
		fc.nodes[i] = enode{kind: eConst, val: IntVal(x.V)}
	case *cfg.StrConst:
		fc.nodes[i] = enode{kind: eStr, val: StrVal(x.S)}
	case *cfg.Null:
		fc.nodes[i] = enode{kind: eNull, val: NullVal()}
	case *cfg.VarUse:
		k := eLocal
		if x.V.Global {
			k = eGlobal
		}
		fc.nodes[i] = enode{kind: k, slot: int32(x.V.Slot)}
	case *cfg.Un:
		a := fc.expr(x.X)
		fc.nodes[i] = enode{kind: eUn, op: uint8(x.Op), a: a}
	case *cfg.Bin:
		a := fc.expr(x.X)
		b := fc.expr(x.Y)
		fc.nodes[i] = enode{kind: eBin, op: uint8(x.Op), a: a, b: b, pos: x.Pos}
	case *cfg.Load:
		a := fc.expr(x.Ptr)
		b := fc.expr(x.Idx)
		fc.nodes[i] = enode{kind: eLoad, a: a, b: b, pos: x.Pos}
	case *cfg.NewObj:
		fc.nodes[i] = enode{kind: eNew, slot: int32(x.NumFields)}
	default:
		fc.nodes[i] = enode{kind: eBad, sval: fmt.Sprintf("unknown expression %T", e)}
	}
	return i
}
