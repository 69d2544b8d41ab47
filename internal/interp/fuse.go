package interp

// The peephole fusion pass. It rewrites a function's freshly compiled
// instruction stream (compiledFunc.code) into the superinstruction
// stream exec's fast loop runs (compiledFunc.fcode), fusing hot
// pairs/triples into single dispatches:
//
//   - assignments whose RHS is a small fixed shape — binop of two
//     leaves, binop with an int-constant operand, a leaf-indexed load —
//     become one op instead of an instruction plus a recursive
//     expression walk;
//   - all-leaf cell stores become one op;
//   - conditional branches on a leaf or a leaf-leaf comparison fuse the
//     condition into the branch;
//   - returns of a leaf fuse the operand into the return;
//   - and, critically, the sampling fast path: the coalesced
//     CountdownDec that instrumentation leaves immediately before a
//     block's terminator fuses with a Goto or If into one op, so the
//     paper's "decrement and fall through" costs one dispatch.
//
// Fusion is safe against jump targets by construction: the compiler
// lays blocks out contiguously and every jump target is a block entry
// (term() only emits block-entry pcs), so a fused group can never be
// entered mid-group. The pass fuses strictly within one block.
//
// Beside fcode it records the pc map between the two streams (fstart,
// fat). That map is all the exactness fusion needs: the fused stream is
// run only where nothing but an op's step delta and state writes can be
// observed, and wherever more can be — a fuel check that may fail, a
// profiler, an opcode counter — exec continues in the unfused stream at
// the pc the map names (fused.go).

// isLeaf reports whether a node is a non-recursing operand (constant or
// variable read): leaves never trap and never recurse in evalC.
func isLeaf(n *enode) bool { return n.kind <= eGlobal }

// fuseFunc builds out.fcode, out.fstart and out.fat from out.code. starts
// lists block-entry pcs in layout order; blocks are contiguous and each
// ends with exactly one terminator.
func fuseFunc(out *compiledFunc, starts []int) {
	nodes := out.nodes
	fcode := make([]cinstr, 0, len(out.code))
	fstart := make([]int32, 0, len(out.code)+1)
	fat := make([]int32, len(out.code))
	for i := range fat {
		fat[i] = -1
	}
	// emit appends a finished group that starts at pc at of out.code.
	emit := func(in cinstr, at int) {
		fat[at] = int32(len(fcode))
		fstart = append(fstart, int32(at))
		fcode = append(fcode, in)
	}
	var elems []cinstr
	for bi, s := range starts {
		end := len(out.code)
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		// Specialize every element of the block (the terminator last),
		// then pair-fuse adjacent elements left to right, re-offering the
		// fused result to the next element so chains collapse: dec+export
		// fuses to FDecExport, export+call to FExportCall, and either one
		// then absorbs a trailing block-ending Goto into gtail — so the
		// instrumented export/call/goto glue around a call site becomes a
		// single dispatch.
		elems = elems[:0]
		for i := s; i < end-1; i++ {
			elems = append(elems, specializeInstr(&out.code[i], nodes))
		}
		elems = append(elems, specializeTerm(&out.code[end-1], nodes))
		pend, at := elems[0], s
		for k := 1; k < len(elems); k++ {
			if f, ok := fusePair(&pend, &elems[k]); ok {
				pend = f
				continue
			}
			emit(pend, at)
			pend, at = elems[k], s+k
		}
		emit(pend, at)
	}
	// Jump targets are block entries, and every block entry starts a group.
	for i := range fcode {
		in := &fcode[i]
		if in.gtail != 0 {
			in.gtail = fat[in.gtail-1] + 1
		}
		switch in.op {
		case opGoto, opFDecGoto:
			in.b = fat[in.b]
		case opIf, opThreshold, opFIfBin, opFIfLeaf,
			opFDecIf, opFDecIfBin, opFImportThreshold:
			in.b = fat[in.b]
			in.c = fat[in.c]
		}
	}
	out.fcode = fcode
	out.fstart = append(fstart, int32(len(out.code)))
	out.fat = fat
}

// specializeInstr rewrites one non-terminator instruction into its
// superinstruction form when its operands match a fused shape, else
// returns it unchanged.
func specializeInstr(in *cinstr, nodes []enode) cinstr {
	switch in.op {
	case opAssignLocal, opAssignGlobal:
		g := in.op == opAssignGlobal
		n := &nodes[in.a]
		switch {
		case isLeaf(n):
			return cinstr{op: opFAssignLeaf, dstGlobal: g, slot: in.slot, a: in.a}
		case n.kind == eBin:
			l, r := &nodes[n.a], &nodes[n.b]
			if isLeaf(l) && isLeaf(r) {
				if r.kind == eConst { // eConst is always KInt
					return cinstr{op: opFAssignBinImm, dstGlobal: g, slot: in.slot,
						bop: n.op, a: n.a, imm: r.val.I, pos: n.pos}
				}
				return cinstr{op: opFAssignBin, dstGlobal: g, slot: in.slot,
					bop: n.op, a: n.a, b: n.b, pos: n.pos}
			}
			if l.kind == eBin && isLeaf(&nodes[l.a]) && isLeaf(&nodes[l.b]) && isLeaf(r) {
				return cinstr{op: opFAssignBin3, dstGlobal: g, slot: in.slot,
					bop: n.op, a: in.a, pos: n.pos}
			}
			if l.kind == eLoad && r.kind == eLoad &&
				isLeaf(&nodes[l.a]) && isLeaf(&nodes[l.b]) &&
				isLeaf(&nodes[r.a]) && isLeaf(&nodes[r.b]) {
				return cinstr{op: opFAssignLoadLoad, dstGlobal: g, slot: in.slot,
					bop: n.op, a: in.a, pos: n.pos}
			}
		case n.kind == eLoad:
			if isLeaf(&nodes[n.a]) && isLeaf(&nodes[n.b]) {
				return cinstr{op: opFAssignLoad, dstGlobal: g, slot: in.slot,
					a: n.a, b: n.b, pos: n.pos}
			}
		}
	case opAssignCell:
		if isLeaf(&nodes[in.b]) && isLeaf(&nodes[in.c]) {
			x := &nodes[in.a]
			if isLeaf(x) {
				f := *in
				f.op = opFAssignCell
				return f
			}
			if x.kind == eBin && isLeaf(&nodes[x.a]) && isLeaf(&nodes[x.b]) {
				f := *in
				f.op = opFAssignCellBin
				return f
			}
		}
	}
	return *in
}

// specializeTerm rewrites one terminator into its superinstruction form
// when its condition/operand is a fused shape, else returns it unchanged.
func specializeTerm(in *cinstr, nodes []enode) cinstr {
	switch in.op {
	case opIf:
		n := &nodes[in.a]
		if isLeaf(n) {
			f := *in
			f.op = opFIfLeaf
			return f
		}
		if n.kind == eBin && isLeaf(&nodes[n.a]) && isLeaf(&nodes[n.b]) {
			return cinstr{op: opFIfBin, bop: n.op, slot: n.a, a: n.b,
				b: in.b, c: in.c, pos: n.pos}
		}
	case opRet:
		if isLeaf(&nodes[in.a]) {
			f := *in
			f.op = opFRetLeaf
			return f
		}
	}
	return *in
}

// fusePair fuses two adjacent (already specialized) block elements into
// one superinstruction. Two families:
//
//   - the sampling fast path: instrumentation coalesces fast-path
//     decrements to a single CountdownDec at block end, so dec+Goto and
//     dec+If are exactly the paper's "decrement, skip the probe, fall
//     through" sequence — one dispatch;
//   - the countdown plumbing around calls and checkpoints: import at
//     function/region entry pairs with the entry checkpoint, export
//     pairs with the call or return it precedes, and dec pairs with the
//     export it feeds — the fixed glue the fleet histogram shows
//     dominating instrumented dispatch;
//   - and goto tails: any sequential instruction (fused or not)
//     followed by its block's Goto absorbs the jump into gtail, so the
//     fast loop runs the goto step inline after the instruction instead
//     of dispatching it.
func fusePair(x, y *cinstr) (cinstr, bool) {
	switch x.op {
	case opCountdownDec:
		switch y.op {
		case opGoto:
			return cinstr{op: opFDecGoto, slot: x.slot, b: y.b}, true
		case opCDExport:
			return cinstr{op: opFDecExport, slot: x.slot}, true
		case opIf, opFIfBin:
			// The If variants keep their operand fields; the decrement
			// rides in imm (slot is taken by opFIfBin's left operand).
			f := *y
			f.op = opFDecIf
			if y.op == opFIfBin {
				f.op = opFDecIfBin
			}
			f.imm = int64(x.slot)
			return f, true
		}
	case opCDImport:
		if y.op == opThreshold {
			f := *y
			f.op = opFImportThreshold
			return f, true
		}
	case opCDExport:
		switch y.op {
		case opCall:
			f := *y
			f.op = opFExportCall
			return f, true
		case opRet:
			f := *y
			f.op = opFExportRet
			return f, true
		case opRetVoid:
			f := *y
			f.op = opFExportRetVoid
			return f, true
		case opFRetLeaf:
			f := *y
			f.op = opFExportRetLeaf
			return f, true
		}
	}
	// Goto-tail fusion: x must be a sequential instruction (its fast arm
	// falls through to the next one) without a tail already fused in.
	if y.op == opGoto && x.gtail == 0 && isSeqOp(x.op) {
		f := *x
		f.gtail = y.b + 1
		return f, true
	}
	return cinstr{}, false
}

// isSeqOp reports whether op is a sequential instruction — one whose
// fast arm falls through to the next instruction — and may therefore
// carry a fused goto tail. Terminators and the dec/import+branch fusions
// jump or return and must not.
func isSeqOp(op copcode) bool {
	if op < opGoto {
		return true
	}
	switch op {
	case opFAssignBin, opFAssignBinImm, opFAssignLoad,
		opFAssignCell, opFAssignCellBin, opFAssignLeaf, opFAssignBin3,
		opFAssignLoadLoad, opFDecExport, opFExportCall:
		return true
	}
	return false
}
