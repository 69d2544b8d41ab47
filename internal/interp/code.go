package interp

import (
	"fmt"
	"sync"

	"cbi/internal/cfg"
	"cbi/internal/minic"
)

// Engine selects which execution engine runs a program.
type Engine uint8

const (
	// EngineFused is the bytecode VM with its fast path on: wherever no
	// fuel check can fail and no profiler or opcode counter watches, it
	// runs the superinstruction stream (compare+branch, load+binop+store,
	// constant-operand arithmetic, and the sampling fast path
	// countdown-decrement+branch), and everywhere else the exact loop of
	// EngineCompiled. It is the zero value, i.e. the default.
	EngineFused Engine = iota
	// EngineCompiled is the bytecode VM with the fast path off: the exact
	// loop alone, one switch dispatch and one fuel-checked step per
	// unfused instruction. Retained as a differential oracle for the fast
	// path (and as the speedup baseline in cbi-bench).
	EngineCompiled
	// EngineTree is the reference tree-walking interpreter, retained as
	// the differential oracle for both bytecode engines.
	EngineTree
)

// String returns the engine's flag spelling.
func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineCompiled:
		return "compiled"
	}
	return "fused"
}

// EngineOf parses an engine flag value ("" means the default).
func EngineOf(s string) (Engine, bool) {
	switch s {
	case "fused", "":
		return EngineFused, true
	case "compiled":
		return EngineCompiled, true
	case "tree":
		return EngineTree, true
	}
	return 0, false
}

// ----------------------------------------------------------------------------
// Compiled representation
//
// The tree walker spends most of its time on dispatch: interface type
// switches per instruction and per expression node, string comparisons
// per operator, map lookups per call, and a frame + locals allocation per
// call. The compiled form eliminates all four while preserving the tree
// walker's observable behaviour *exactly* — same counters, outcome, trap
// kind/position, step totals, sample counts, and profiler attribution.
//
// Step-count parity dictates the shape. The tree walker charges one step
// per instruction, one per block terminator, and one per expression node
// in pre-order, and a run can trap mid-expression; so expressions cannot
// be flattened to post-order stack code (an enclosing operator's
// pre-order charge would be missing at the trap point). Instead each
// function gets a pool of expression nodes evaluated recursively in the
// same pre-order — identical charging, but with enum dispatch, interned
// operators, and resolved slots instead of interface walks.

// copcode is a compiled instruction or terminator opcode. Terminator
// opcodes are grouped at the end so the exec loop can classify with one
// compare (op >= opGoto).
type copcode uint8

const (
	// Instructions (cfg.Instr analogues).
	opAssignLocal  copcode = iota // locals[slot] = eval(a)
	opAssignGlobal                // globals[slot] = eval(a)
	opAssignCell                  // eval(a)[...] — X=a, Ptr=b, Idx=c
	opCall                        // user function call
	opCallBuiltin                 // builtin / host-intrinsic call
	opSite                        // unconditional probe
	opGuardedSite                 // countdown-guarded probe (slow path)
	opCountdownDec                // countdown -= slot
	opCDImport                    // frame countdown = global countdown
	opCDExport                    // global countdown = frame countdown
	opBad                         // malformed instruction; traps when reached

	// Terminators (cfg.Term analogues).
	opGoto      // pc = b
	opIf        // if eval(a) then pc = b else pc = c
	opRet       // return eval(a)
	opRetVoid   // return 0
	opThreshold // if countdown > slot then pc = b else pc = c
	opBadTerm   // missing/malformed terminator; traps when reached

	// Superinstructions. These appear only in the fused stream (fcode)
	// built by fuseFunc, which only exec's fast loop runs — the exact
	// loop never sees them, and grouping them after opBadTerm keeps its
	// terminator classification (op >= opGoto) untouched. A
	// superinstruction is a fuse rule (fuse.go) plus a fast arm
	// (fused.go) whose step delta and state writes equal those of the
	// unfused group it stands for.
	opFAssignBin     // dst = binop(bop, leaf a, leaf b)
	opFAssignBinImm  // dst = binop(bop, leaf a, imm) — rhs was an int const
	opFAssignLoad    // dst = leaf(a)[leaf(b)]
	opFAssignCell    // leaf(b)[leaf(c)] = leaf(a)
	opFAssignCellBin // leaf(b)[leaf(c)] = binop(bin-node a)
	opFIfBin         // if binop(bop, leaf slot, leaf a) then pc=b else pc=c
	opFIfLeaf        // if leaf(a) then pc = b else pc = c
	opFRetLeaf       // return leaf(a)
	opFDecGoto       // countdown -= slot; pc = b (the sampling fast path)
	opFDecIf         // countdown -= imm; then opIf on node a
	opFDecIfBin      // countdown -= imm; then opFIfBin

	// Deeper assignment specializations for the RHS shapes the ccrypt
	// fleet histogram (TestFusedTraffic's ccryptOps) shows dominating the
	// remaining generic assigns.
	opFAssignLeaf     // dst = leaf(a)
	opFAssignBin3     // dst = binop(bop, binop(inner bin), leaf) — node a
	opFAssignLoadLoad // dst = binop(bop, load, load) — node a

	// Countdown-plumbing and call glue fusions. The instrumented streams
	// are dominated by the frame-countdown import/export dance around
	// calls and checkpoints (see TestFusedTraffic's ccryptOps); these
	// fold those fixed pairs into single dispatches. Goto tails need no
	// opcodes at all: any sequential instruction followed by its block's
	// Goto carries the target in gtail and the fast loop runs the goto
	// step inline (fallthrough threading).
	opFDecExport       // countdown -= slot; global countdown = frame countdown
	opFExportCall      // cd export; then opCall
	opFImportThreshold // cd import; then opThreshold
	opFExportRet       // cd export; return eval(a)
	opFExportRetVoid   // cd export; return 0
	opFExportRetLeaf   // cd export; return leaf(a)

	// nOpcodes sizes the per-opcode execution histogram.
	nOpcodes
)

// opNames spells opcodes for the cbi-bench per-opcode histogram.
var opNames = [nOpcodes]string{
	opAssignLocal:    "assign_local",
	opAssignGlobal:   "assign_global",
	opAssignCell:     "assign_cell",
	opCall:           "call",
	opCallBuiltin:    "call_builtin",
	opSite:           "site",
	opGuardedSite:    "guarded_site",
	opCountdownDec:   "countdown_dec",
	opCDImport:       "cd_import",
	opCDExport:       "cd_export",
	opBad:            "bad",
	opGoto:           "goto",
	opIf:             "if",
	opRet:            "ret",
	opRetVoid:        "ret_void",
	opThreshold:      "threshold",
	opBadTerm:        "bad_term",
	opFAssignBin:     "f_assign_bin",
	opFAssignBinImm:  "f_assign_bin_imm",
	opFAssignLoad:    "f_assign_load",
	opFAssignCell:    "f_assign_cell",
	opFAssignCellBin: "f_assign_cell_bin",
	opFIfBin:         "f_if_bin",
	opFIfLeaf:        "f_if_leaf",
	opFRetLeaf:       "f_ret_leaf",
	opFDecGoto:       "f_dec_goto",
	opFDecIf:         "f_dec_if",
	opFDecIfBin:      "f_dec_if_bin",

	opFAssignLeaf:     "f_assign_leaf",
	opFAssignBin3:     "f_assign_bin3",
	opFAssignLoadLoad: "f_assign_load_load",

	opFDecExport:       "f_dec_export",
	opFExportCall:      "f_export_call",
	opFImportThreshold: "f_import_threshold",
	opFExportRet:       "f_export_ret",
	opFExportRetVoid:   "f_export_ret_void",
	opFExportRetLeaf:   "f_export_ret_leaf",
}

func (op copcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// opKinds maps instruction opcodes to the profiler path kind their steps
// belong to, mirroring instrKind on the cfg.Instr forms.
var opKinds = [opBadTerm + 1]PathKind{
	opAssignLocal:  PathBaseline,
	opAssignGlobal: PathBaseline,
	opAssignCell:   PathBaseline,
	opCall:         PathBaseline,
	opCallBuiltin:  PathBaseline,
	opSite:         PathSlowSite,
	opGuardedSite:  PathSlowSite,
	opCountdownDec: PathFastDec,
	opCDImport:     PathFastDec,
	opCDExport:     PathFastDec,
	opBad:          PathBaseline,
}

// cinstr is one compiled instruction or terminator.
type cinstr struct {
	op        copcode
	fresh     bool  // opCallBuiltin: host intrinsic — args need a fresh slice
	dstGlobal bool  // call result goes to a global slot
	bop       uint8 // fused ops: interned cfg.BinOp
	slot      int32 // dst slot (calls/assigns), countdown delta, threshold weight
	a, b, c   int32 // expression node indices or jump-target pcs (see opcodes)
	gtail     int32 // fused stream: 1 + pc of a fused trailing Goto (0 = none)
	imm       int64 // fused ops: constant operand / threshold weight
	args      []int32
	site      *cfg.Site
	callee    *compiledFunc
	name      string // callee/builtin name, or opBad diagnostic
	pos       minic.Pos
}

// ekind discriminates compiled expression nodes.
type ekind uint8

const (
	eConst ekind = iota
	eStr
	eNull
	eLocal
	eGlobal
	eUn
	eBin
	eLoad
	eNew
	eBad
)

// enode is one compiled expression node. Children are indices into the
// owning function's node pool; evaluation recurses in the same pre-order
// as the tree walker so step charges land node-for-node identically.
type enode struct {
	kind ekind
	op   uint8  // cfg.UnOp or cfg.BinOp
	slot int32  // variable slot (eLocal/eGlobal) or field count (eNew)
	a, b int32  // child node indices
	val  Value  // precomputed constant (eConst/eStr/eNull)
	sval string // eBad diagnostic
	pos  minic.Pos
}

// compiledFunc is one function lowered to a flat instruction stream.
// code/entry is the unfused stream the exact loop runs; fcode is the
// superinstruction stream the fast loop runs (built from code by
// fuseFunc, sharing the same node pool). fstart and fat are the one pc
// map between them, along which exec hands over in either direction.
type compiledFunc struct {
	name           string
	code           []cinstr
	nodes          []enode
	zero           []Value // locals template: declared-type zero values
	skipZero       bool    // every local written before read: prologue copy dead
	paramSlots     []int32
	localCountdown bool
	entry          int // pc of the entry block
	fcode          []cinstr
	fstart         []int32 // fcode index → pc in code where its group starts; one entry past the end
	fat            []int32 // pc in code → fcode index of the group starting there, −1 inside a group
}

// Compiled is a program lowered once to bytecode. The bytecode is
// immutable after Compile returns and safe to share across any number of
// concurrent runs — the fleet compiles once and hands the same Compiled
// to every worker goroutine. A Compiled must not be copied.
type Compiled struct {
	prog  *cfg.Program
	funcs map[string]*compiledFunc
	main  *compiledFunc
	// vms holds finished, recycled VMs of this program for Run, so that a
	// run's start-up cost follows what the run uses, not the size of the
	// state it might use (countdown bank, frame pool, first arena chunks).
	vms sync.Pool
}

// Run executes the compiled program's main under conf and builds the
// report. Concurrent calls are safe; all per-run state lives in the VM.
// The VM is recycled when Run returns: intrinsics must not retain the
// *VM, its Rand, or guest pointers (KPtr values) past the run.
func (c *Compiled) Run(conf Config) Result {
	vm, _ := c.vms.Get().(*VM)
	if vm == nil {
		vm = new(VM)
	}
	res := c.runOn(vm, conf)
	c.vms.Put(vm)
	return res
}

// runOn executes one run on vm — a new VM, or one an earlier runOn of
// this Compiled recycled — and recycles it.
func (c *Compiled) runOn(vm *VM, conf Config) Result {
	c.resetVM(vm, conf)
	res := vm.Run()
	vm.recycle()
	return res
}

// NewVM prepares a VM bound to this compiled program without running it
// (used by harnesses that install intrinsics referring to the VM). The
// bytecode engine is taken from conf (EngineFused by default); a tree
// request falls back to the default, since Compiled has no tree form.
func (c *Compiled) NewVM(conf Config) *VM {
	vm := new(VM)
	c.resetVM(vm, conf)
	return vm
}

func (c *Compiled) resetVM(vm *VM, conf Config) {
	if conf.Engine == EngineTree {
		conf.Engine = EngineFused
	}
	vm.reset(c.prog, c, conf)
}

// cframe is a pooled call frame of the compiled engine. Frames are
// reused per call depth and the locals arena is reused across calls, so
// a run allocates at most one frame per stack depth ever reached.
type cframe struct {
	fn     *compiledFunc
	locals []Value
	cd     int64
}

// frameAt returns the pooled frame for call depth d (1-based).
func (vm *VM) frameAt(d int) *cframe {
	for n := len(vm.cframes); n < d; n++ {
		if n < cap(vm.cframes) && vm.cframes[:n+1][n] != nil {
			vm.cframes = vm.cframes[:n+1] // a frame an earlier run left
		} else {
			vm.cframes = append(vm.cframes, &cframe{})
		}
	}
	return vm.cframes[d-1]
}

func (vm *VM) cdGetC(fr *cframe) int64 {
	if fr.fn.localCountdown {
		return fr.cd
	}
	return vm.cd
}

func (vm *VM) cdSetC(fr *cframe, v int64) {
	if fr.fn.localCountdown {
		fr.cd = v
	} else {
		vm.cd = v
	}
}

// ----------------------------------------------------------------------------
// Execution

// callC runs a compiled function and returns its value. It mirrors
// vm.call step for step: the same fuel charges in the same order, the
// same profiler synchronization points, and the same trap positions. The
// body is exec (fused.go) on either bytecode engine.
func (vm *VM) callC(fn *compiledFunc, args []Value) (Value, error) {
	// The epilogue (profiler exit, depth pop) runs explicitly on every
	// return path rather than via defer: nothing in the engines panics
	// past this frame (traps are error returns), and the two defers are
	// measurable per-call overhead on call-heavy workloads.
	vm.depth++
	if vm.depth > vm.maxDepth {
		vm.depth--
		return Value{}, &Trap{Kind: TrapStackOverflow, Msg: fn.name}
	}
	if vm.prof != nil {
		vm.prof.enter(fn.name, vm.steps)
	}
	fr := vm.frameAt(vm.depth)
	fr.fn = fn
	if cap(fr.locals) >= len(fn.zero) {
		fr.locals = fr.locals[:len(fn.zero)]
	} else {
		fr.locals = make([]Value, len(fn.zero))
	}
	if !fn.skipZero {
		// Functions where some local may be read before it is written
		// get the declared-zero template; the rest skip the copy — the
		// stale values left in the reused arena are proven dead by
		// computeSkipZero (definite.go).
		copy(fr.locals, fn.zero)
	}
	for i, s := range fn.paramSlots {
		if i < len(args) {
			fr.locals[s] = args[i]
		} else {
			fr.locals[s] = fn.zero[s]
		}
	}
	fr.cd = 0

	ret, err := vm.exec(fn, fr)
	if vm.prof != nil {
		vm.prof.exit(vm.steps)
	}
	vm.depth--
	return ret, err
}

// assignCellC stores eval(X) into Ptr[Idx], evaluating X, Ptr, Idx in
// the tree walker's order.
func (vm *VM) assignCellC(fr *cframe, nodes []enode, in *cinstr) error {
	v, err := vm.evalC(fr, nodes, in.a)
	if err != nil {
		return err
	}
	ptr, err := vm.evalC(fr, nodes, in.b)
	if err != nil {
		return err
	}
	idx, err := vm.evalC(fr, nodes, in.c)
	if err != nil {
		return err
	}
	cell, err := cellAt(&ptr, &idx, in.pos)
	if err != nil {
		return err
	}
	*cell = v
	return nil
}

// callUserC evaluates arguments into the LIFO scratch stack and invokes
// the pre-resolved callee. The scratch window is safe to reuse because
// callC copies arguments into the callee's locals before evaluating
// anything that could push further arguments.
func (vm *VM) callUserC(fr *cframe, nodes []enode, in *cinstr) error {
	base := len(vm.argStack)
	for _, a := range in.args {
		// Leaf arguments (the common case at call sites) skip the evalC
		// call; the step charge is identical.
		var v Value
		if c := &nodes[a]; c.kind <= eGlobal {
			vm.steps++
			v = vm.leafC(fr, c)
		} else {
			var err error
			if v, err = vm.evalC(fr, nodes, a); err != nil {
				vm.argStack = vm.argStack[:base]
				return err
			}
		}
		vm.argStack = append(vm.argStack, v)
	}
	if in.callee == nil {
		vm.argStack = vm.argStack[:base]
		return &Trap{Kind: TrapBadProgram, Pos: in.pos, Msg: "unknown function " + in.name}
	}
	ret, err := vm.callC(in.callee, vm.argStack[base:])
	vm.argStack = vm.argStack[:base]
	if err != nil {
		return err
	}
	if in.slot >= 0 {
		vm.setDst(fr, in, &ret)
	}
	return nil
}

// callBuiltinC invokes a builtin. Standard builtins never retain their
// argument slice, so they share the non-nesting scratch buffer; host
// intrinsics (fresh) get a fresh slice since they may keep it.
func (vm *VM) callBuiltinC(fr *cframe, nodes []enode, in *cinstr) error {
	var args []Value
	if in.fresh {
		args = make([]Value, 0, len(in.args))
	} else {
		args = vm.scratch[:0]
	}
	for _, a := range in.args {
		var v Value
		if c := &nodes[a]; c.kind <= eGlobal {
			vm.steps++
			v = vm.leafC(fr, c)
		} else {
			var err error
			if v, err = vm.evalC(fr, nodes, a); err != nil {
				return err
			}
		}
		args = append(args, v)
	}
	if !in.fresh {
		vm.scratch = args[:0]
	}
	ret, err := vm.callBuiltin(in.name, args, in.pos)
	if err != nil {
		return err
	}
	if in.slot >= 0 {
		vm.setDst(fr, in, &ret)
	}
	return nil
}

// fireProbeC is fireProbe for the compiled engine: sample accounting
// first (argument evaluation may trap), then the shared probe body.
func (vm *VM) fireProbeC(fr *cframe, nodes []enode, s *cfg.Site, argNodes []int32) error {
	vm.recordSample(s)
	args := vm.scratch[:0]
	for _, a := range argNodes {
		v, err := vm.evalC(fr, nodes, a)
		if err != nil {
			return err
		}
		args = append(args, v)
	}
	vm.scratch = args[:0]
	return vm.probe(s, args)
}

// leafC fetches a leaf node's (kind <= eGlobal) value. Kept small so it
// inlines into evalC's operand fast paths.
func (vm *VM) leafC(fr *cframe, n *enode) Value {
	if n.kind == eLocal {
		return fr.locals[n.slot]
	}
	if n.kind == eGlobal {
		return vm.globals[n.slot]
	}
	return n.val
}

// evalC evaluates a compiled expression node. The pre-order step charge
// at entry makes step totals — including at mid-expression trap points —
// identical to the tree walker's eval.
//
// Operand positions take a non-recursive fast path when the child is a
// leaf: the child's +1 charge is applied in place. This cannot be
// observed — leaves never trap, and expression charges are not
// fuel-checked, so the step total at every possible stop point (an
// operator trap, an instruction boundary) is unchanged.
func (vm *VM) evalC(fr *cframe, nodes []enode, i int32) (Value, error) {
	vm.steps++
	n := &nodes[i]
	switch n.kind {
	case eConst, eStr, eNull:
		return n.val, nil
	case eLocal:
		return fr.locals[n.slot], nil
	case eGlobal:
		return vm.globals[n.slot], nil
	case eUn:
		var v Value
		var err error
		if c := &nodes[n.a]; c.kind <= eGlobal {
			vm.steps++
			v = vm.leafC(fr, c)
		} else if v, err = vm.evalC(fr, nodes, n.a); err != nil {
			return Value{}, err
		}
		return unop(cfg.UnOp(n.op), v)
	case eBin:
		var a, b Value
		var err error
		if c := &nodes[n.a]; c.kind <= eGlobal {
			vm.steps++
			a = vm.leafC(fr, c)
		} else if a, err = vm.evalC(fr, nodes, n.a); err != nil {
			return Value{}, err
		}
		if c := &nodes[n.b]; c.kind <= eGlobal {
			vm.steps++
			b = vm.leafC(fr, c)
		} else if b, err = vm.evalC(fr, nodes, n.b); err != nil {
			return Value{}, err
		}
		if a.p == nil && b.p == nil {
			// Integer operators resolved in place; the semantics are those
			// of binop on two KInt values (Cmp on int pairs is the plain
			// three-way compare). Div and mod fall through for the
			// zero-divisor trap.
			switch cfg.BinOp(n.op) {
			case cfg.BinAdd:
				return IntVal(a.I + b.I), nil
			case cfg.BinSub:
				return IntVal(a.I - b.I), nil
			case cfg.BinMul:
				return IntVal(a.I * b.I), nil
			case cfg.BinEq:
				return boolVal(a.I == b.I), nil
			case cfg.BinNe:
				return boolVal(a.I != b.I), nil
			case cfg.BinLt:
				return boolVal(a.I < b.I), nil
			case cfg.BinLe:
				return boolVal(a.I <= b.I), nil
			case cfg.BinGt:
				return boolVal(a.I > b.I), nil
			case cfg.BinGe:
				return boolVal(a.I >= b.I), nil
			}
		}
		return binop(cfg.BinOp(n.op), a, b, n.pos)
	case eLoad:
		var ptr, idx Value
		var err error
		if c := &nodes[n.a]; c.kind <= eGlobal {
			vm.steps++
			ptr = vm.leafC(fr, c)
		} else if ptr, err = vm.evalC(fr, nodes, n.a); err != nil {
			return Value{}, err
		}
		if c := &nodes[n.b]; c.kind <= eGlobal {
			vm.steps++
			idx = vm.leafC(fr, c)
		} else if idx, err = vm.evalC(fr, nodes, n.b); err != nil {
			return Value{}, err
		}
		// Valid loads resolve in place; anything else (null, freed,
		// out-of-bounds, non-int index) re-derives its trap in resolveCell.
		if ptr.isPtr() && idx.p == nil && !ptr.p.Freed {
			if off := int(ptr.I) + int(idx.I); off >= 0 && off < len(ptr.p.Data) {
				return ptr.p.Data[off], nil
			}
		}
		cell, err := resolveCell(ptr, idx, n.pos)
		if err != nil {
			return Value{}, err
		}
		return *cell, nil
	case eNew:
		v := vm.alloc(int(n.slot))
		// Structs get exactly their field count: field access cannot
		// overrun, matching C struct semantics.
		v.p.Data = v.p.Data[:n.slot]
		v.p.Size = int(n.slot)
		return v, nil
	}
	return Value{}, &Trap{Kind: TrapBadProgram, Msg: n.sval}
}
