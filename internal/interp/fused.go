package interp

import (
	"cbi/internal/cfg"
	"cbi/internal/minic"
)

// exec is the one executor of both bytecode engines, in two modes.
//
// The exact loop runs the unfused stream (fn.code): one switch dispatch
// per instruction or terminator, each with its fuel-checked step and its
// profiler charge, mirroring the tree walker charge for charge. It is
// the only place the bytecode form says when fuel runs out and which
// path kind a step belongs to, and it is all of EngineCompiled.
//
// The fast loop runs the superinstruction stream (fn.fcode) and is to
// the exact loop what the paper's fast clone is to its slow one (§2): a
// copy stripped of the checks, entered only where a threshold proves
// them idle. The threshold is on fuel instead of on the countdown —
// vm.steps < fastLim — and is never met with a profiler or an opcode
// counter attached. The equivalence rests on two obligations (DESIGN
// §9.1):
//
//  1. Inside the guard, a fast arm's step delta and state writes equal
//     those of the unfused group it stands for, and a trap it returns
//     carries that group's step total at the trap point. Nothing else
//     is observable there: nobody watches path kinds or dispatch counts,
//     and no fuel check can fail — the guard leaves 16 steps of slack, an
//     arm of bounded work charges at most 8, and an arm that calls or
//     walks an expression is followed by a re-test of the guard before
//     the next fuel-checked step.
//  2. The loops hand over only where both streams describe the same
//     machine state: at the start of a fused group (fstart/fat), or at
//     the Goto that ends one whose body is complete. Block entries start
//     groups, so a jump never lands inside one.
//
// So the fast loop has one exit besides return and trap: stop before
// charging anything for a group and let the exact loop run it. Both
// obligations are checked differentially against the tree walker
// (engine_test.go, fuse_test.go), not proven per arm.
func (vm *VM) exec(fn *compiledFunc, fr *cframe) (Value, error) {
	code, nodes := fn.code, fn.nodes
	pc := fn.entry
	var fastLim uint64
	if vm.engine == EngineFused && vm.prof == nil && vm.ops == nil && vm.fuel >= 16 {
		fastLim = vm.fuel - 15
	}
	for {
		if vm.steps < fastLim && fn.fat[pc] >= 0 {
			fcode := fn.fcode
			f := int(fn.fat[pc])
		fast:
			for vm.steps < fastLim {
				in := &fcode[f]
				// Jumps and returns leave the switch by continue or return;
				// an arm that falls out of it completed a sequential
				// instruction, and the code below the switch advances f.
				switch in.op {
				case opFDecGoto:
					vm.steps++
					vm.cdSetC(fr, vm.cdGetC(fr)-int64(in.slot))
					fallthrough
				case opGoto:
					vm.steps++
					f = int(in.b)
					continue
				case opFImportThreshold:
					vm.steps++
					fr.cd = vm.cd
					fallthrough
				case opThreshold:
					vm.steps++
					if f = int(in.c); vm.cdGetC(fr) > int64(in.slot) {
						f = int(in.b)
					}
					continue
				case opFDecIf:
					vm.steps++
					vm.cdSetC(fr, vm.cdGetC(fr)-in.imm)
					fallthrough
				case opIf:
					vm.steps++
					v, err := vm.evalC(fr, nodes, in.a)
					if err != nil {
						return Value{}, err
					}
					if f = int(in.c); v.Truthy() {
						f = int(in.b)
					}
					continue
				case opFIfLeaf:
					vm.steps += 2
					if f = int(in.c); vm.leafP(fr, &nodes[in.a]).Truthy() {
						f = int(in.b)
					}
					continue
				case opFDecIfBin:
					vm.steps++
					vm.cdSetC(fr, vm.cdGetC(fr)-in.imm)
					fallthrough
				case opFIfBin:
					vm.steps += 4
					l, r := vm.leafP(fr, &nodes[in.slot]), vm.leafP(fr, &nodes[in.a])
					var t, ok bool
					if l.p == nil && r.p == nil {
						t, ok = binIntCond(cfg.BinOp(in.bop), l.I, r.I)
					}
					if !ok {
						v, err := binop(cfg.BinOp(in.bop), *l, *r, in.pos)
						if err != nil {
							return Value{}, err
						}
						t = v.Truthy()
					}
					if f = int(in.c); t {
						f = int(in.b)
					}
					continue
				case opFExportRetVoid:
					vm.steps++
					vm.cd = fr.cd
					fallthrough
				case opRetVoid:
					vm.steps++
					return IntVal(0), nil
				case opFExportRet:
					vm.steps++
					vm.cd = fr.cd
					fallthrough
				case opRet:
					vm.steps++
					return vm.evalC(fr, nodes, in.a)
				case opFExportRetLeaf:
					vm.steps++
					vm.cd = fr.cd
					fallthrough
				case opFRetLeaf:
					vm.steps += 2
					return *vm.leafP(fr, &nodes[in.a]), nil

				// Sequential instructions.
				case opAssignLocal, opAssignGlobal:
					vm.steps++
					v, err := vm.evalC(fr, nodes, in.a)
					if err != nil {
						return Value{}, err
					}
					if in.op == opAssignGlobal {
						vm.globals[in.slot] = v
					} else {
						fr.locals[in.slot] = v
					}
				case opAssignCell:
					vm.steps++
					if err := vm.assignCellC(fr, nodes, in); err != nil {
						return Value{}, err
					}
				case opFExportCall:
					vm.steps++
					vm.cd = fr.cd
					fallthrough
				case opCall:
					vm.steps++
					if err := vm.callUserC(fr, nodes, in); err != nil {
						return Value{}, err
					}
				case opCallBuiltin:
					vm.steps++
					if err := vm.callBuiltinC(fr, nodes, in); err != nil {
						return Value{}, err
					}
				case opSite:
					vm.steps++
					if err := vm.fireProbeC(fr, nodes, in.site, in.args); err != nil {
						return Value{}, err
					}
				case opGuardedSite:
					vm.steps++
					if err := vm.guardedSiteC(fr, nodes, in); err != nil {
						return Value{}, err
					}
				case opCountdownDec:
					vm.steps++
					vm.cdSetC(fr, vm.cdGetC(fr)-int64(in.slot))
				case opCDImport:
					vm.steps++
					fr.cd = vm.cd
				case opFDecExport:
					vm.steps++
					vm.cdSetC(fr, vm.cdGetC(fr)-int64(in.slot))
					fallthrough
				case opCDExport:
					vm.steps++
					vm.cd = fr.cd
				case opFAssignLeaf:
					vm.steps += 2
					vm.setDst(fr, in, vm.leafP(fr, &nodes[in.a]))
				case opFAssignBin:
					vm.steps += 4
					v, err := binLeaves(cfg.BinOp(in.bop), vm.leafP(fr, &nodes[in.a]), vm.leafP(fr, &nodes[in.b]), in.pos)
					if err != nil {
						return Value{}, err
					}
					vm.setDst(fr, in, &v)
				case opFAssignBinImm:
					// The folded constant still pays its leaf step.
					vm.steps += 4
					imm := IntVal(in.imm)
					v, err := binLeaves(cfg.BinOp(in.bop), vm.leafP(fr, &nodes[in.a]), &imm, in.pos)
					if err != nil {
						return Value{}, err
					}
					vm.setDst(fr, in, &v)
				case opFAssignBin3:
					// Outer bin, inner bin and its leaves; the inner operator's
					// trap point; the right leaf; the outer operator's.
					n := &nodes[in.a]
					inner := &nodes[n.a]
					vm.steps += 5
					l, err := binLeaves(cfg.BinOp(inner.op), vm.leafP(fr, &nodes[inner.a]), vm.leafP(fr, &nodes[inner.b]), inner.pos)
					if err != nil {
						return Value{}, err
					}
					vm.steps++
					v, err := binLeaves(cfg.BinOp(in.bop), &l, vm.leafP(fr, &nodes[n.b]), in.pos)
					if err != nil {
						return Value{}, err
					}
					vm.setDst(fr, in, &v)
				case opFAssignLoad:
					vm.steps += 4
					cell, err := cellAt(vm.leafP(fr, &nodes[in.a]), vm.leafP(fr, &nodes[in.b]), in.pos)
					if err != nil {
						return Value{}, err
					}
					vm.setDst(fr, in, cell)
				case opFAssignLoadLoad:
					// Each load traps, if it does, after its own node and leaves.
					n := &nodes[in.a]
					ln, rn := &nodes[n.a], &nodes[n.b]
					vm.steps += 5
					l, err := cellAt(vm.leafP(fr, &nodes[ln.a]), vm.leafP(fr, &nodes[ln.b]), ln.pos)
					if err != nil {
						return Value{}, err
					}
					vm.steps += 3
					r, err := cellAt(vm.leafP(fr, &nodes[rn.a]), vm.leafP(fr, &nodes[rn.b]), rn.pos)
					if err != nil {
						return Value{}, err
					}
					v, err := binLeaves(cfg.BinOp(in.bop), l, r, in.pos)
					if err != nil {
						return Value{}, err
					}
					vm.setDst(fr, in, &v)
				case opFAssignCell:
					vm.steps += 4
					cell, err := cellAt(vm.leafP(fr, &nodes[in.b]), vm.leafP(fr, &nodes[in.c]), in.pos)
					if err != nil {
						return Value{}, err
					}
					*cell = *vm.leafP(fr, &nodes[in.a])
				case opFAssignCellBin:
					// X, Ptr, Idx: the operator's trap point comes before the
					// pointer and index leaves are charged.
					n := &nodes[in.a]
					vm.steps += 4
					v, err := binLeaves(cfg.BinOp(n.op), vm.leafP(fr, &nodes[n.a]), vm.leafP(fr, &nodes[n.b]), n.pos)
					if err != nil {
						return Value{}, err
					}
					vm.steps += 2
					cell, err := cellAt(vm.leafP(fr, &nodes[in.b]), vm.leafP(fr, &nodes[in.c]), in.pos)
					if err != nil {
						return Value{}, err
					}
					*cell = v
				default: // opBad, opBadTerm: the exact loop's traps
					break fast
				}
				f++
				if in.gtail != 0 {
					// Fused goto tail. Calls and expression walks charge
					// without bound and may have crossed the guard: then the
					// Goto, the last instruction before the next group, is
					// the exact loop's.
					if vm.steps >= fastLim {
						vm.handovers++
						pc = int(fn.fstart[f]) - 1
						goto exact
					}
					vm.steps++
					f = int(in.gtail - 1)
				}
			}
			vm.handovers++
			pc = int(fn.fstart[f])
		}

	exact:
		in := &code[pc]
		if vm.ops != nil {
			vm.countOp(fn, pc)
		}
		if in.op >= opGoto {
			// Terminator: one fuel-checked step, then dispatch. On fuel
			// exhaustion the charge is baseline, as in the tree walker.
			if err := vm.step(minic.Pos{}); err != nil {
				if vm.prof != nil {
					vm.prof.take(PathBaseline, vm.steps)
				}
				return Value{}, err
			}
			kind := PathBaseline
			switch in.op {
			case opGoto:
				pc = int(in.b)
			case opIf:
				v, err := vm.evalC(fr, nodes, in.a)
				if err != nil {
					// No take: the profiler exit in callC claims these
					// steps as baseline, exactly like the tree walker.
					return Value{}, err
				}
				if pc = int(in.c); v.Truthy() {
					pc = int(in.b)
				}
			case opRetVoid:
				return IntVal(0), nil
			case opRet:
				return vm.evalC(fr, nodes, in.a)
			case opThreshold:
				kind = PathThreshold
				if pc = int(in.c); vm.cdGetC(fr) > int64(in.slot) {
					pc = int(in.b)
				}
			default:
				return Value{}, &Trap{Kind: TrapBadProgram, Msg: "missing terminator"}
			}
			if vm.prof != nil {
				vm.prof.take(kind, vm.steps)
			}
			continue
		}

		// Instruction: one fuel-checked step, the op body, then the
		// profiler charge — which, as in the tree walker, runs even when
		// the body (or the fuel check itself) produced the error.
		err := vm.step(minic.Pos{})
		if err == nil {
			switch in.op {
			case opAssignLocal:
				var v Value
				if v, err = vm.evalC(fr, nodes, in.a); err == nil {
					fr.locals[in.slot] = v
				}
			case opAssignGlobal:
				var v Value
				if v, err = vm.evalC(fr, nodes, in.a); err == nil {
					vm.globals[in.slot] = v
				}
			case opAssignCell:
				err = vm.assignCellC(fr, nodes, in)
			case opCall:
				err = vm.callUserC(fr, nodes, in)
			case opCallBuiltin:
				err = vm.callBuiltinC(fr, nodes, in)
			case opSite:
				err = vm.fireProbeC(fr, nodes, in.site, in.args)
			case opGuardedSite:
				err = vm.guardedSiteC(fr, nodes, in)
			case opCountdownDec:
				vm.cdSetC(fr, vm.cdGetC(fr)-int64(in.slot))
			case opCDImport:
				fr.cd = vm.cd
			case opCDExport:
				vm.cd = fr.cd
			default:
				err = &Trap{Kind: TrapBadProgram, Msg: in.name}
			}
		}
		if vm.prof != nil {
			vm.prof.take(opKinds[in.op], vm.steps)
		}
		if err != nil {
			return Value{}, err
		}
		pc++
	}
}

// countOp is the Config.CountOps bump of the exact loop standing at pc.
// EngineCompiled counts every instruction. EngineFused counts the fused
// stream's dispatches: the op of the group that starts at pc and nothing
// inside a group — a group is entered only at its start, so this is the
// dispatch mix of the fast loop, which itself never counts.
func (vm *VM) countOp(fn *compiledFunc, pc int) {
	if vm.engine != EngineFused {
		vm.ops[fn.code[pc].op]++
	} else if f := fn.fat[pc]; f >= 0 {
		vm.ops[fn.fcode[f].op]++
	}
}

// guardedSiteC is the slow path's countdown-guarded probe: decrement,
// and at zero fire the probe and draw the next countdown. On a probe
// error the countdown write is skipped, as in the tree walker.
func (vm *VM) guardedSiteC(fr *cframe, nodes []enode, in *cinstr) error {
	cd := vm.cdGetC(fr) - 1
	if cd == 0 {
		if err := vm.fireProbeC(fr, nodes, in.site, in.args); err != nil {
			return err
		}
		cd = vm.source.Next()
	}
	vm.cdSetC(fr, cd)
	return nil
}

// leafP is leafC by reference: the fast arms read a leaf's kind and I in
// place, or copy it once to where it goes.
func (vm *VM) leafP(fr *cframe, n *enode) *Value {
	if n.kind == eLocal {
		return &fr.locals[n.slot]
	}
	if n.kind == eGlobal {
		return &vm.globals[n.slot]
	}
	return &n.val
}

// setDst stores *v in the instruction's destination variable.
func (vm *VM) setDst(fr *cframe, in *cinstr, v *Value) {
	if in.dstGlobal {
		vm.globals[in.slot] = *v
	} else {
		fr.locals[in.slot] = *v
	}
}

// binIntCond is the truth of a binop on two ints, for the fused
// branches. ok is false for Div and Mod, which can trap.
func binIntCond(op cfg.BinOp, a, b int64) (t, ok bool) {
	switch op {
	case cfg.BinEq:
		return a == b, true
	case cfg.BinNe:
		return a != b, true
	case cfg.BinLt:
		return a < b, true
	case cfg.BinLe:
		return a <= b, true
	case cfg.BinGt:
		return a > b, true
	case cfg.BinGe:
		return a >= b, true
	case cfg.BinAdd:
		return a+b != 0, true
	case cfg.BinSub:
		return a-b != 0, true
	case cfg.BinMul:
		return a*b != 0, true
	}
	return false, false
}

// binLeaves applies op to two leaf values exactly as evalC's eBin case:
// the all-int operators resolved in place (Div and Mod fall through for
// the zero-divisor trap), everything else through the shared binop.
func binLeaves(op cfg.BinOp, a, b *Value, pos minic.Pos) (Value, error) {
	if a.p == nil && b.p == nil {
		switch op {
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
	return binop(op, *a, *b, pos)
}

// cellAt is the address of ptr[idx], a valid in-bounds access resolved
// in place like evalC's eLoad case; anything else re-derives its trap in
// resolveCell.
func cellAt(ptr, idx *Value, pos minic.Pos) (*Value, error) {
	if ptr.isPtr() && idx.p == nil && !ptr.p.Freed {
		if off := int(ptr.I) + int(idx.I); off >= 0 && off < len(ptr.p.Data) {
			return &ptr.p.Data[off], nil
		}
	}
	return resolveCell(*ptr, *idx, pos)
}
