package interp

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"cbi/internal/cfg"
	"cbi/internal/minic"
	"cbi/internal/rng"
	"cbi/internal/sampler"
)

// TrapKind classifies run-terminating faults.
type TrapKind int

const (
	TrapNullDeref TrapKind = iota
	TrapOutOfBounds
	TrapUseAfterFree
	TrapDivByZero
	TrapAssertFailed
	TrapAbort
	TrapStackOverflow
	TrapFuelExhausted
	TrapBadProgram // internal inconsistency (missing main, bad callee, ...)
)

func (k TrapKind) String() string {
	switch k {
	case TrapNullDeref:
		return "null dereference"
	case TrapOutOfBounds:
		return "out-of-bounds access"
	case TrapUseAfterFree:
		return "use after free"
	case TrapDivByZero:
		return "division by zero"
	case TrapAssertFailed:
		return "assertion failed"
	case TrapAbort:
		return "abort"
	case TrapStackOverflow:
		return "stack overflow"
	case TrapFuelExhausted:
		return "fuel exhausted"
	case TrapBadProgram:
		return "bad program"
	default:
		return "unknown trap"
	}
}

// Trap is the fatal-signal analogue: it terminates the run and marks the
// report as a crash.
type Trap struct {
	Kind TrapKind
	Pos  minic.Pos
	Msg  string
}

func (t *Trap) Error() string {
	if t.Msg != "" {
		return fmt.Sprintf("%s: %s: %s", t.Pos, t.Kind, t.Msg)
	}
	return fmt.Sprintf("%s: %s", t.Pos, t.Kind)
}

// Intrinsic is a host-provided builtin. Implementations may return a Trap
// to crash the run.
type Intrinsic func(vm *VM, args []Value) (Value, error)

// Config configures one run.
type Config struct {
	// Engine selects the execution engine: the bytecode VM with its fused
	// fast path (EngineFused, the zero value and default), the bytecode
	// VM's exact loop alone (EngineCompiled), or the reference
	// tree-walking interpreter (EngineTree). The latter two are kept as
	// differential oracles. All three produce bit-identical Results.
	Engine Engine
	// Seed drives the program-visible rand() builtin.
	Seed int64
	// Density is the sampling density for sampled programs (e.g. 1.0/1000).
	Density float64
	// CountdownSeed seeds the geometric countdown bank; the paper varies
	// this per run ("each run used a different pre-generated bank").
	CountdownSeed int64
	// BankSize is the countdown bank size (default 1024, as in §3.1.1).
	BankSize int
	// Source overrides the countdown source entirely (e.g. a Periodic
	// sampler for the fairness ablation). Density/CountdownSeed are then
	// ignored.
	Source sampler.Source
	// Fuel bounds the number of VM steps (default 200M).
	Fuel uint64
	// MaxDepth bounds the call stack (default 4096).
	MaxDepth int
	// Stdout receives print output; nil discards it into the Result.
	Stdout io.Writer
	// Intrinsics supplies host builtins beyond the standard set. Keys
	// must match the builtins the program was checked against.
	Intrinsics map[string]Intrinsic
	// AbortOnBoundsViolation makes a sampled bounds probe (§3.1) abort
	// the program when it observes a violation, like a CCured check.
	AbortOnBoundsViolation bool
	// TraceCapacity, when positive, keeps an ordered ring buffer of the
	// last N sampled probe firings (site IDs). The paper defers ordered
	// partial traces to future work (§2.5); this is the minimal version:
	// a bounded flight recorder whose memory cost is fixed, preserving
	// the §2.5 scalability constraint.
	TraceCapacity int
	// CountOps enables the per-opcode execution-frequency histogram
	// (Result.OpCounts) on the bytecode engines, so fusion candidates are
	// chosen from dispatch data. Ignored by the tree walker (no opcodes).
	// A counting run takes the exact loop throughout.
	CountOps bool
	// Profile enables the per-function, per-path-kind step profiler
	// (Result.Profile). It attributes every VM step to a calling-context
	// tree node, so Table 2 / Figure 4 overhead ratios decompose into
	// baseline vs fast-path vs slow-path vs threshold work. A profiled
	// run takes the exact loop throughout: a map-free array bump per
	// instruction.
	Profile bool
}

// Outcome is the final disposition of a run.
type Outcome int

const (
	// OutcomeOK means main returned normally.
	OutcomeOK Outcome = iota
	// OutcomeCrash means the run died on a trap (the "aborted by a fatal
	// signal" flag of §3.3.1).
	OutcomeCrash
)

// Result summarizes one run: the §2.5 report vector plus diagnostics.
type Result struct {
	Outcome  Outcome
	Trap     *Trap
	ExitCode int64
	// Counters is the predicate counter vector (one per counter across
	// all sites; order matches Program.Sites).
	Counters []uint64
	Steps    uint64
	Output   string
	// SamplesTaken counts probe firings, for fairness diagnostics.
	SamplesTaken uint64
	// Trace holds the site IDs of the last TraceCapacity sampled probe
	// firings, oldest first (empty unless Config.TraceCapacity > 0).
	Trace []int
	// Profile is the step-attribution profile (nil unless
	// Config.Profile). Its totals sum to Steps exactly.
	Profile *Profile
	// OpCounts is the per-opcode dispatch histogram, keyed by opcode
	// name (nil unless Config.CountOps on a bytecode engine).
	OpCounts map[string]uint64
}

// VM executes one program run.
type VM struct {
	prog          *cfg.Program
	counters      []uint64
	seed          int64 // Config.Seed, for the lazily seeded guest rand()
	rngReady      bool  // rng is seeded for this run
	source        sampler.Source
	cd            int64 // global countdown
	out           io.Writer
	buf           strings.Builder // captures output when Config.Stdout is nil
	digits        [24]byte        // printi's scratch: an int64 and '\n' fit
	capture       bool
	fuel          uint64
	steps         uint64
	samples       uint64
	maxDepth      int
	depth         int
	intr          map[string]Intrinsic
	nextObj       int64
	abortOnBounds bool
	traceLen      int
	traceNext     int
	prof          *profiler

	engine    Engine
	code      *Compiled // bytecode form (EngineFused, EngineCompiled); shared, read-only
	ops       []uint64  // per-opcode dispatch counts (Config.CountOps)
	handovers uint64    // times exec's fast loop handed over to its exact loop

	// Bump arenas for guest heap objects (vm.alloc): headers and cell
	// slices are carved from chunks so allocation-heavy guests cost two
	// host allocations per chunk, not per object. Chunks start small and
	// double up to a cap so light allocators don't pay for zeroing big
	// chunks they never fill. Carved slices are full-capacity sub-slices
	// that are never recycled within a run, so the guest memory model
	// (slack, use-after-free flags, IDs) is unchanged.
	cellArena []Value
	objArena  []Object
	cellChunk int
	objChunk  int

	recycled
}

// recycled is the part of a VM that a later run may inherit (Compiled.Run
// keeps finished VMs in a pool): exactly the state that cannot escape
// into a Result. Everything a Result references — Counters, Trace,
// Output, Trap, Profile, OpCounts — is allocated fresh per run. reset
// starts every VM, fresh or inherited, from the same observable state;
// recycle scrubs a finished VM down to what is worth keeping.
type recycled struct {
	// The countdown source of a sampled run: geo is drawn only through
	// bank.
	geo  sampler.Geometric
	bank sampler.Bank
	rng  *rand.Rand // guest rand(); seeded on first use, see Rand

	globals []Value
	trace   []int // ring buffer of sampled site IDs

	// Execution state of the bytecode engines: frames are pooled per call
	// depth and locals arenas are reused across calls, so a run allocates
	// at most one frame per stack depth ever reached instead of one frame
	// + locals slice per call. len(cframes) is the deepest call of this
	// run; frames of earlier, deeper runs wait between len and cap.
	cframes  []*cframe
	argStack []Value // user-call argument scratch; LIFO with the call stack
	scratch  []Value // probe/std-builtin argument scratch; never nests

	// The first chunk of each guest-heap arena. A run hands out zeroed
	// memory only (fresh cells read 0, fresh objects are not Freed), so
	// recycle zeroes the prefix the run carved.
	cells0 []Value
	objs0  []Object
}

type frame struct {
	fn     *cfg.Func
	locals []Value
	cd     int64
}

// Run executes prog's main function under cfg. With the default
// EngineFused (or EngineCompiled) the program is lowered to bytecode
// first; callers that execute the same program many times should
// Compile once and reuse the result (see Compiled.Run).
func Run(prog *cfg.Program, conf Config) Result {
	vm := New(prog, conf)
	return vm.Run()
}

// New prepares a VM without running it (used by harnesses that install
// intrinsics referring to the VM).
func New(prog *cfg.Program, conf Config) *VM {
	vm := new(VM)
	vm.reset(prog, nil, conf)
	return vm
}

// reset is the one VM constructor: it prepares vm to run prog under conf,
// keeping only vm's recycled buffers (none, for a new VM). code is the
// compiled form when the caller has one.
func (vm *VM) reset(prog *cfg.Program, code *Compiled, conf Config) {
	*vm = VM{
		prog:          prog,
		code:          code,
		engine:        conf.Engine,
		counters:      make([]uint64, prog.NumCounters),
		seed:          conf.Seed,
		fuel:          conf.Fuel,
		maxDepth:      conf.MaxDepth,
		intr:          conf.Intrinsics,
		out:           conf.Stdout,
		abortOnBounds: conf.AbortOnBoundsViolation,
		recycled:      vm.recycled,
	}
	if vm.fuel == 0 {
		vm.fuel = 200_000_000
	}
	if vm.maxDepth == 0 {
		vm.maxDepth = 4096
	}
	if vm.out == nil {
		vm.capture = true
		vm.out = &vm.buf
	}
	if n := conf.TraceCapacity; n > 0 {
		// Stale entries are overwritten before finish reads them.
		vm.trace = slices.Grow(vm.trace[:0], n)[:n]
	} else {
		vm.trace = nil
	}
	if conf.Profile {
		vm.prof = newProfiler()
	}
	if conf.CountOps && conf.Engine != EngineTree {
		vm.ops = make([]uint64, nOpcodes)
	}
	switch {
	case conf.Source != nil:
		vm.source = conf.Source
	case conf.Density > 0:
		bankSize := conf.BankSize
		if bankSize == 0 {
			bankSize = 1024
		}
		vm.geo.Reset(conf.CountdownSeed, conf.Density)
		vm.bank.Reset(&vm.geo, bankSize)
		vm.source = &vm.bank
	default:
		vm.source = sampler.Never{}
	}
	vm.cd = vm.source.Next()
	vm.globals = slices.Grow(vm.globals[:0], len(prog.Globals))[:len(prog.Globals)]
	for i, g := range prog.Globals {
		vm.globals[i] = ZeroFor(g.Type)
	}
	for i, g := range prog.File.Globals {
		if g.Init != nil {
			vm.globals[i] = vm.constValue(cfg.LowerGlobalInit(g.Init))
		}
	}
}

// Limits on what recycle keeps, so that one pathological run cannot pin
// memory in the pool: larger buffers are dropped, not kept.
const (
	maxRecycledFrames = 64   // call depth of the kept frame pool
	maxRecycledValues = 64   // cap of a kept locals, argument or scratch slice
	maxRecycledInts   = 4096 // cap of a kept countdown bank or trace ring
)

// recycle scrubs a finished VM for reuse by a later run of the same
// Compiled: it drops oversized buffers and everything that is not in
// recycled, and clears every guest value the run left behind — in the
// first arena chunks because the next run must read zeroes there,
// elsewhere so that no stale pointer keeps the run's later (unrecycled)
// arena chunks alive.
func (vm *VM) recycle() {
	if cap(vm.cframes) > maxRecycledFrames {
		vm.cframes = nil
	}
	for _, fr := range vm.cframes { // the frames this run reached
		fr.locals = scrubbed(fr.locals)
	}
	vm.cframes = vm.cframes[:0]
	vm.argStack = scrubbed(vm.argStack)
	vm.scratch = scrubbed(vm.scratch)
	clear(vm.globals) // sized by the program, not by the run: always kept
	if vm.bank.Len() > maxRecycledInts {
		vm.bank = sampler.Bank{}
	}
	if cap(vm.trace) > maxRecycledInts {
		vm.trace = nil
	}
	clear(carved(vm.cells0, vm.cellArena, vm.cellChunk, cellArenaMin))
	clear(carved(vm.objs0, vm.objArena, vm.objChunk, objArenaMin))
	*vm = VM{recycled: vm.recycled}
}

// carved returns the part of a first arena chunk that the finished run
// may have handed out, given the size of the run's current chunk: nothing
// if the run never allocated, up to the arena cursor while the first
// chunk (size min) is still the current one, all of it once the run has
// moved on.
func carved[T any](first, arena []T, chunk, min int) []T {
	switch chunk {
	case 0:
		return nil
	case min:
		return first[:len(first)-len(arena)]
	}
	return first
}

// firstChunk returns a zeroed arena chunk of n elements: the recycled
// *first when n is the first-chunk size min (chunk sizes only grow, so
// that is the run's first chunk), a new one otherwise.
func firstChunk[T any](first *[]T, n, min int) []T {
	if n != min {
		return make([]T, n)
	}
	if *first == nil {
		*first = make([]T, n)
	}
	return *first
}

// scrubbed returns s cleared to its full capacity and emptied, or nil if
// it is too large to keep.
func scrubbed(s []Value) []Value {
	if cap(s) > maxRecycledValues {
		return nil
	}
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

func (vm *VM) constValue(e cfg.Expr) Value {
	switch x := e.(type) {
	case *cfg.Const:
		return IntVal(x.V)
	case *cfg.StrConst:
		return StrVal(x.S)
	default:
		return NullVal()
	}
}

// Counters exposes the live counter vector (for sufficient-statistics
// collection modes).
func (vm *VM) Counters() []uint64 { return vm.counters }

// Rand exposes the program-visible RNG to intrinsics (and backs the rand
// builtin). It is seeded from Config.Seed on first use, so a run that
// never draws from it never allocates the generator. The generator
// belongs to the VM and must not be retained past the run.
func (vm *VM) Rand() *rand.Rand {
	if !vm.rngReady {
		if vm.rng == nil {
			vm.rng = rng.New(vm.seed)
		} else {
			vm.rng.Seed(vm.seed)
		}
		vm.rngReady = true
	}
	return vm.rng
}

// Run executes main and builds the report.
func (vm *VM) Run() Result {
	res := Result{}
	var v Value
	var err error
	if vm.engine == EngineTree {
		main := vm.prog.Funcs["main"]
		if main == nil {
			res.Outcome = OutcomeCrash
			res.Trap = &Trap{Kind: TrapBadProgram, Msg: "no main function"}
			return vm.finish(res)
		}
		v, err = vm.call(main, nil)
	} else {
		if vm.code == nil {
			vm.code = Compile(vm.prog)
		}
		if vm.code.main == nil {
			res.Outcome = OutcomeCrash
			res.Trap = &Trap{Kind: TrapBadProgram, Msg: "no main function"}
			return vm.finish(res)
		}
		v, err = vm.callC(vm.code.main, nil)
	}
	if err != nil {
		res.Outcome = OutcomeCrash
		if tr, ok := err.(*Trap); ok {
			res.Trap = tr
		} else {
			res.Trap = &Trap{Kind: TrapBadProgram, Msg: err.Error()}
		}
		return vm.finish(res)
	}
	res.Outcome = OutcomeOK
	res.ExitCode = v.Int()
	return vm.finish(res)
}

func (vm *VM) finish(res Result) Result {
	res.Counters = vm.counters
	res.Steps = vm.steps
	res.SamplesTaken = vm.samples
	if vm.traceLen > 0 {
		res.Trace = make([]int, 0, vm.traceLen)
		start := 0
		if vm.traceLen == len(vm.trace) {
			start = vm.traceNext
		}
		for i := 0; i < vm.traceLen; i++ {
			res.Trace = append(res.Trace, vm.trace[(start+i)%len(vm.trace)])
		}
	}
	if vm.capture {
		res.Output = vm.buf.String()
	}
	if vm.prof != nil {
		// By now every vm.call frame has unwound (its deferred exit
		// claimed trailing steps), so the tree accounts for Steps exactly.
		res.Profile = vm.prof.profile()
	}
	if vm.ops != nil {
		res.OpCounts = make(map[string]uint64)
		for op, n := range vm.ops {
			if n > 0 {
				res.OpCounts[copcode(op).String()] = n
			}
		}
	}
	return res
}

func (vm *VM) step(pos minic.Pos) error {
	vm.steps++
	if vm.steps > vm.fuel {
		return &Trap{Kind: TrapFuelExhausted, Pos: pos}
	}
	return nil
}

// call runs fn with args and returns its value.
func (vm *VM) call(fn *cfg.Func, args []Value) (Value, error) {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > vm.maxDepth {
		return Value{}, &Trap{Kind: TrapStackOverflow, Msg: fn.Name}
	}
	if vm.prof != nil {
		vm.prof.enter(fn.Name, vm.steps)
		// The deferred exit also runs on trap unwinding, so every step
		// charged below this frame is attributed before the tree pops.
		defer func() { vm.prof.exit(vm.steps) }()
	}
	fr := &frame{fn: fn, locals: make([]Value, len(fn.Locals))}
	for i, l := range fn.Locals {
		fr.locals[i] = ZeroFor(l.Type)
	}
	for i, p := range fn.Params {
		if i < len(args) {
			fr.locals[p.Slot] = args[i]
		}
	}
	b := fn.Entry
	for {
		for _, in := range b.Instrs {
			err := vm.execInstr(fr, in)
			if vm.prof != nil {
				// Charge everything since the last sync point — this
				// instruction's fuel, its expression evaluations, probe
				// work — to the instruction's path kind. A nested call
				// already claimed its own steps at deeper nodes, so the
				// delta here is caller-side work only.
				vm.prof.take(instrKind(in), vm.steps)
			}
			if err != nil {
				return Value{}, err
			}
		}
		if err := vm.step(minic.Pos{}); err != nil {
			if vm.prof != nil {
				vm.prof.take(PathBaseline, vm.steps)
			}
			return Value{}, err
		}
		term := b.Term
		switch t := term.(type) {
		case *cfg.Goto:
			b = t.To
		case *cfg.If:
			v, err := vm.eval(fr, t.Cond)
			if err != nil {
				return Value{}, err
			}
			if v.Truthy() {
				b = t.Then
			} else {
				b = t.Else
			}
		case *cfg.Ret:
			if t.X == nil {
				return IntVal(0), nil
			}
			return vm.eval(fr, t.X)
		case *cfg.Threshold:
			if vm.cdGet(fr) > int64(t.Weight) {
				b = t.Fast
			} else {
				b = t.Slow
			}
		default:
			return Value{}, &Trap{Kind: TrapBadProgram, Msg: "missing terminator"}
		}
		if vm.prof != nil {
			// The block's terminator charge (one step, plus any branch
			// condition evaluation). Threshold checks are the sampling
			// transformation's region dispatch; everything else is the
			// program's own control flow. Ret returns above, where the
			// deferred exit claims its trailing steps.
			if _, ok := term.(*cfg.Threshold); ok {
				vm.prof.take(PathThreshold, vm.steps)
			} else {
				vm.prof.take(PathBaseline, vm.steps)
			}
		}
	}
}

func (vm *VM) cdGet(fr *frame) int64 {
	if fr.fn.LocalCountdown {
		return fr.cd
	}
	return vm.cd
}

func (vm *VM) cdSet(fr *frame, v int64) {
	if fr.fn.LocalCountdown {
		fr.cd = v
	} else {
		vm.cd = v
	}
}

func (vm *VM) execInstr(fr *frame, in cfg.Instr) error {
	if err := vm.step(minic.Pos{}); err != nil {
		return err
	}
	switch x := in.(type) {
	case *cfg.Assign:
		v, err := vm.eval(fr, x.X)
		if err != nil {
			return err
		}
		return vm.store(fr, x.LV, v, x.Pos)
	case *cfg.Call:
		return vm.execCall(fr, x)
	case *cfg.SiteInstr:
		return vm.fireProbe(fr, x.Site)
	case *cfg.GuardedSite:
		cd := vm.cdGet(fr) - 1
		if cd == 0 {
			if err := vm.fireProbe(fr, x.Site); err != nil {
				return err
			}
			cd = vm.source.Next()
		}
		vm.cdSet(fr, cd)
		return nil
	case *cfg.CountdownDec:
		vm.cdSet(fr, vm.cdGet(fr)-int64(x.N))
		return nil
	case *cfg.CDImport:
		fr.cd = vm.cd
		return nil
	case *cfg.CDExport:
		vm.cd = fr.cd
		return nil
	default:
		return &Trap{Kind: TrapBadProgram, Msg: fmt.Sprintf("unknown instruction %T", in)}
	}
}

func (vm *VM) execCall(fr *frame, c *cfg.Call) error {
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := vm.eval(fr, a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	var ret Value
	var err error
	if c.Builtin {
		ret, err = vm.callBuiltin(c.Callee, args, c.Pos)
	} else {
		callee := vm.prog.Funcs[c.Callee]
		if callee == nil {
			return &Trap{Kind: TrapBadProgram, Pos: c.Pos, Msg: "unknown function " + c.Callee}
		}
		ret, err = vm.call(callee, args)
	}
	if err != nil {
		return err
	}
	if c.Dst != nil {
		if c.Dst.Global {
			vm.globals[c.Dst.Slot] = ret
		} else {
			fr.locals[c.Dst.Slot] = ret
		}
	}
	return nil
}

// fireProbe executes a site's probe and bumps the chosen counter (§2.5:
// the report is a vector of predicate counters).
func (vm *VM) fireProbe(fr *frame, s *cfg.Site) error {
	vm.recordSample(s)
	args := make([]Value, len(s.Args))
	for i, a := range s.Args {
		v, err := vm.eval(fr, a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	return vm.probe(s, args)
}

// recordSample counts a probe firing and records it in the flight
// recorder, before argument evaluation (which may trap) — shared by both
// engines so SamplesTaken and Trace agree on trapping runs.
func (vm *VM) recordSample(s *cfg.Site) {
	vm.samples++
	if vm.trace != nil {
		vm.trace[vm.traceNext] = s.ID
		vm.traceNext = (vm.traceNext + 1) % len(vm.trace)
		if vm.traceLen < len(vm.trace) {
			vm.traceLen++
		}
	}
}

// probe bumps the site's chosen counter given its evaluated arguments.
// Shared by the tree and compiled engines.
func (vm *VM) probe(s *cfg.Site, args []Value) error {
	bump := func(i int) { vm.counters[s.CounterBase+i]++ }
	switch s.Kind {
	case cfg.SiteReturns:
		switch args[0].Sign() {
		case -1:
			bump(0)
		case 0:
			bump(1)
		default:
			bump(2)
		}
	case cfg.SiteScalarPair:
		// Single three-way comparison; unordered pairs land in the
		// "greater" bucket, matching the old Less-then-Equal cascade.
		switch args[0].Cmp(args[1]) {
		case -1:
			bump(0)
		case 0:
			bump(1)
		default:
			bump(2)
		}
	case cfg.SiteNullCheck:
		if args[0].p == nullObj {
			bump(0)
		} else {
			bump(1)
		}
	case cfg.SiteBranch:
		if args[0].Truthy() {
			bump(1)
		} else {
			bump(0)
		}
	case cfg.SiteBounds:
		ptr, idx := args[0], args[1]
		switch {
		case ptr.p == nullObj:
			bump(0)
			if vm.abortOnBounds {
				return &Trap{Kind: TrapNullDeref, Pos: s.Pos, Msg: "bounds check"}
			}
		case ptr.isPtr() && idx.p == nil &&
			(int(ptr.I)+int(idx.I) < 0 || int(ptr.I)+int(idx.I) >= ptr.p.Size):
			bump(1)
			if vm.abortOnBounds {
				return &Trap{Kind: TrapOutOfBounds, Pos: s.Pos, Msg: "bounds check"}
			}
		}
	case cfg.SiteAssert:
		if args[0].Truthy() {
			bump(0)
		} else {
			bump(1)
			return &Trap{Kind: TrapAssertFailed, Pos: s.Pos, Msg: s.Text}
		}
	}
	return nil
}

// store writes v into an lvalue.
func (vm *VM) store(fr *frame, lv cfg.LValue, v Value, pos minic.Pos) error {
	switch x := lv.(type) {
	case *cfg.VarRef:
		if x.V.Global {
			vm.globals[x.V.Slot] = v
		} else {
			fr.locals[x.V.Slot] = v
		}
		return nil
	case *cfg.CellRef:
		cell, err := vm.cell(fr, x.Ptr, x.Idx, pos)
		if err != nil {
			return err
		}
		*cell = v
		return nil
	default:
		return &Trap{Kind: TrapBadProgram, Pos: pos, Msg: "unknown lvalue"}
	}
}

// cell resolves a heap cell address, enforcing the slack-capacity memory
// model: indices within physical capacity succeed even past the logical
// size; beyond capacity (or on null/freed objects) the run traps.
func (vm *VM) cell(fr *frame, ptrE, idxE cfg.Expr, pos minic.Pos) (*Value, error) {
	ptr, err := vm.eval(fr, ptrE)
	if err != nil {
		return nil, err
	}
	idx, err := vm.eval(fr, idxE)
	if err != nil {
		return nil, err
	}
	return resolveCell(ptr, idx, pos)
}

// resolveCell checks an evaluated pointer/index pair against the memory
// model and returns the cell address. Shared by the tree and compiled
// engines.
func resolveCell(ptr, idx Value, pos minic.Pos) (*Value, error) {
	if ptr.p == nullObj {
		return nil, &Trap{Kind: TrapNullDeref, Pos: pos}
	}
	obj := ptr.Obj()
	if obj == nil {
		return nil, &Trap{Kind: TrapBadProgram, Pos: pos, Msg: "indexing non-pointer"}
	}
	if obj.Freed {
		return nil, &Trap{Kind: TrapUseAfterFree, Pos: pos}
	}
	if idx.p != nil {
		return nil, &Trap{Kind: TrapBadProgram, Pos: pos, Msg: "non-integer index"}
	}
	off := int(ptr.I) + int(idx.I)
	if off < 0 || off >= len(obj.Data) {
		return nil, &Trap{Kind: TrapOutOfBounds, Pos: pos,
			Msg: fmt.Sprintf("offset %d outside capacity %d", off, len(obj.Data))}
	}
	return &obj.Data[off], nil
}

// alloc creates a heap object with allocator slack: capacity is the
// request rounded up to the next power of two (minimum 4), like common
// size-class allocators. The gap between Size and capacity is what lets
// small overruns go unnoticed.
func (vm *VM) alloc(n int) Value {
	capacity := 4
	for capacity < n {
		capacity *= 2
	}
	vm.nextObj++
	// Cells start as IntVal(0), which is Value's zero value (a nil
	// pointer), and headers as live heap objects, which is Object's zero
	// value (tag 0), so freshly carved (or freshly made) chunks need no
	// initialization pass. Oversized requests bypass the arena.
	var data []Value
	if capacity <= cellArenaMax {
		if len(vm.cellArena) < capacity {
			switch vm.cellChunk *= 2; {
			case vm.cellChunk < cellArenaMin:
				vm.cellChunk = cellArenaMin
			case vm.cellChunk > cellArenaMax:
				vm.cellChunk = cellArenaMax
			}
			if vm.cellChunk < capacity {
				vm.cellChunk = capacity // ≤ cellArenaMax here
			}
			vm.cellArena = firstChunk(&vm.cells0, vm.cellChunk, cellArenaMin)
		}
		data = vm.cellArena[:capacity:capacity]
		vm.cellArena = vm.cellArena[capacity:]
	} else {
		data = make([]Value, capacity)
	}
	if len(vm.objArena) == 0 {
		if vm.objChunk < objArenaMax {
			if vm.objChunk = vm.objChunk * 2; vm.objChunk < objArenaMin {
				vm.objChunk = objArenaMin
			}
		}
		vm.objArena = firstChunk(&vm.objs0, vm.objChunk, objArenaMin)
	}
	obj := &vm.objArena[0]
	vm.objArena = vm.objArena[1:]
	obj.ID = vm.nextObj
	obj.Data = data
	obj.Size = n
	return PtrVal(obj, 0)
}

const (
	cellArenaMin = 256   // Values in the first cell-arena chunk
	cellArenaMax = 16384 // chunk-size cap; larger requests bypass the arena
	objArenaMin  = 32    // headers in the first object-arena chunk
	objArenaMax  = 2048  // header chunk-size cap
)

// eval evaluates a pure expression.
func (vm *VM) eval(fr *frame, e cfg.Expr) (Value, error) {
	vm.steps++
	switch x := e.(type) {
	case *cfg.Const:
		return IntVal(x.V), nil
	case *cfg.StrConst:
		return StrVal(x.S), nil
	case *cfg.Null:
		return NullVal(), nil
	case *cfg.VarUse:
		if x.V.Global {
			return vm.globals[x.V.Slot], nil
		}
		return fr.locals[x.V.Slot], nil
	case *cfg.Un:
		v, err := vm.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return unop(x.Op, v)
	case *cfg.Bin:
		return vm.evalBin(fr, x)
	case *cfg.Load:
		cell, err := vm.cell(fr, x.Ptr, x.Idx, x.Pos)
		if err != nil {
			return Value{}, err
		}
		return *cell, nil
	case *cfg.NewObj:
		v := vm.alloc(x.NumFields)
		// Structs get exactly their field count: field access cannot
		// overrun, matching C struct semantics.
		v.p.Data = v.p.Data[:x.NumFields]
		v.p.Size = x.NumFields
		return v, nil
	}
	return Value{}, &Trap{Kind: TrapBadProgram, Msg: fmt.Sprintf("unknown expression %T", e)}
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func (vm *VM) evalBin(fr *frame, x *cfg.Bin) (Value, error) {
	a, err := vm.eval(fr, x.X)
	if err != nil {
		return Value{}, err
	}
	b, err := vm.eval(fr, x.Y)
	if err != nil {
		return Value{}, err
	}
	return binop(x.Op, a, b, x.Pos)
}

// unop applies a unary operator to an evaluated operand. Shared by the
// tree and compiled engines.
func unop(op cfg.UnOp, v Value) (Value, error) {
	switch op {
	case cfg.UnNeg:
		return IntVal(-v.Int()), nil
	case cfg.UnNot:
		if v.Truthy() {
			return IntVal(0), nil
		}
		return IntVal(1), nil
	}
	return Value{}, &Trap{Kind: TrapBadProgram, Msg: "unary " + op.String()}
}

// binop applies a binary operator to evaluated operands. Shared by the
// tree and compiled engines. Orderings dispatch through the single-pass
// Value.Cmp rather than a Less-then-Equal double comparison.
func binop(op cfg.BinOp, a, b Value, pos minic.Pos) (Value, error) {
	switch op {
	case cfg.BinEq:
		return boolVal(a.Equal(b)), nil
	case cfg.BinNe:
		return boolVal(!a.Equal(b)), nil
	case cfg.BinLt:
		return boolVal(a.Cmp(b) == -1), nil
	case cfg.BinLe:
		c := a.Cmp(b)
		return boolVal(c == -1 || c == 0), nil
	case cfg.BinGt:
		return boolVal(a.Cmp(b) == 1), nil
	case cfg.BinGe:
		c := a.Cmp(b)
		return boolVal(c == 1 || c == 0), nil
	}
	// Pointer arithmetic.
	if a.isPtr() && b.p == nil {
		switch op {
		case cfg.BinAdd:
			return PtrVal(a.p, int(a.I)+int(b.I)), nil
		case cfg.BinSub:
			return PtrVal(a.p, int(a.I)-int(b.I)), nil
		}
	}
	if a.p != nil || b.p != nil {
		return Value{}, &Trap{Kind: TrapBadProgram, Pos: pos,
			Msg: fmt.Sprintf("operator %s on %s and %s", op, a, b)}
	}
	switch op {
	case cfg.BinAdd:
		return IntVal(a.I + b.I), nil
	case cfg.BinSub:
		return IntVal(a.I - b.I), nil
	case cfg.BinMul:
		return IntVal(a.I * b.I), nil
	case cfg.BinDiv:
		if b.I == 0 {
			return Value{}, &Trap{Kind: TrapDivByZero, Pos: pos}
		}
		return IntVal(a.I / b.I), nil
	case cfg.BinMod:
		if b.I == 0 {
			return Value{}, &Trap{Kind: TrapDivByZero, Pos: pos}
		}
		return IntVal(a.I % b.I), nil
	}
	return Value{}, &Trap{Kind: TrapBadProgram, Pos: pos, Msg: "operator " + op.String()}
}
