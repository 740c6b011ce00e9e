package wasm

import (
	"encoding/binary"
	"fmt"
)

// instr is one flattened instruction. Immediates are pre-decoded so the
// interpreter never re-parses LEB128 on the hot path — the "decode once,
// execute many" design the Wasm runtimes Roadrunner targets use.
type instr struct {
	op   uint16 // a core opcode, or a synthetic or fused one (opcodes.go)
	imm0 uint64
	imm1 uint64
	tbl  []uint64 // br_table: one resolved target per arm, default last
}

// compiledFunc is a function body ready for execution.
type compiledFunc struct {
	typeIdx    uint32
	numParams  int
	numLocals  int // params + declared locals
	numResults int
	maxStack   int // operand-stack high-water mark over the body
	code       []instr
}

// blockArity returns the number of result values a block type yields and
// validates the encoding. MVP: empty (0x40) or one value type; type-index
// block types are accepted when the referenced signature has no parameters.
func blockArity(m *Module, bt int64) (int, error) {
	switch {
	case bt == -64: // 0x40 as signed 7-bit: empty block
		return 0, nil
	case bt == -1 || bt == -2 || bt == -3 || bt == -4:
		// Signed encodings of 0x7F..0x7C (value types).
		return 1, nil
	case bt >= 0:
		if int(bt) >= len(m.Types) {
			return 0, fmt.Errorf("block type %d: %w", bt, errIndexOutOfRange)
		}
		ft := m.Types[bt]
		if len(ft.Params) != 0 {
			return 0, fmt.Errorf("block type with parameters: %w", ErrUnsupported)
		}
		return len(ft.Results), nil
	default:
		return 0, fmt.Errorf("block type %d: %w", bt, ErrMalformed)
	}
}

// Resolved control flow. Decode validates every body (decode.go), which
// fixes the operand height at each instruction and the target of every
// branch: its continuation pc, the label's entry height and the number of
// values it carries. compileFunc resolves all of them, so the interpreter
// keeps no runtime label stack:
//
//	br, br_if:  imm0 = target (pc<<32 | entry height), imm1 = arity
//	br_table:   tbl  = one target per arm, default last;  imm1 = arity
//	if:         imm0 = pc of the false arm (else+1, or end+1 without else)
//	else:       imm0 = end+1, where the finished true arm continues
//
// A branch to a loop lands on loop+1, a branch to a block or if on end+1,
// and a branch to the function label on the body's final end, which is
// compiled to return. block, loop and every inner end are no-ops at run
// time. Every branch target is therefore the slot after a loop, end or
// else, or the final end — the fact fuse relies on.

// ctrl is one open structured-control construct during compilation.
type ctrl struct {
	op          byte // opBlock, opLoop, opIf; 0 for the function body
	pc          int  // index of the opening instruction
	height      int  // operand height at entry
	arity       int  // result values; a branch carries them, except to a loop
	elsePC      int  // index of the else marker, -1 without one
	fixups      []fixup
	unreachable bool // the rest of the construct is dead code
}

// fixup is a forward branch awaiting its label's end: the instr at pc,
// with arm indexing tbl (br_table) or -1 for imm0.
type fixup struct{ pc, arm int }

// compileFunc flattens one function body into instrs, resolving every
// structured control instruction and branch (see above) and tracking the
// operand height to size the frame's stack. The body must have passed
// validation; the result runs unfused until fuse rewrites it.
func compileFunc(m *Module, fnIdx int) (*compiledFunc, error) {
	code := m.Codes[fnIdx]
	ft := m.Types[m.FuncTypes[fnIdx]]
	cf := &compiledFunc{
		typeIdx:    m.FuncTypes[fnIdx],
		numParams:  len(ft.Params),
		numLocals:  len(ft.Params) + len(code.Locals),
		numResults: len(ft.Results),
	}

	r := &reader{data: code.Body}
	labels := []ctrl{{elsePC: -1, arity: len(ft.Results)}}
	height := 0
	nFuncs := uint32(m.NumImportedFuncs + len(m.FuncTypes))
	nGlobals := uint32(countGlobalImports(m) + len(m.Globals))

	// move applies an instruction's net stack effect. Dead code is stack-
	// polymorphic, so its height is clamped at the construct's entry.
	move := func(delta int) {
		height += delta
		if top := &labels[len(labels)-1]; top.unreachable && height < top.height {
			height = top.height
		}
		cf.maxStack = max(cf.maxStack, height)
	}
	// unreachable marks the rest of the innermost construct dead.
	unreachable := func() {
		top := &labels[len(labels)-1]
		height = top.height
		top.unreachable = true
	}
	// target resolves a branch of relative depth d taken by the instr at
	// fx.pc: a loop's target is known now, every other one is fixed up at
	// the label's end.
	target := func(d uint32, fx fixup) (uint64, uint64, error) {
		if int(d) >= len(labels) {
			return 0, 0, fmt.Errorf("branch depth %d of %d labels: %w", d, len(labels), ErrMalformed)
		}
		l := &labels[len(labels)-1-int(d)]
		if l.op == opLoop {
			return uint64(l.pc+1)<<32 | uint64(l.height), 0, nil
		}
		l.fixups = append(l.fixups, fx)
		return uint64(l.height), uint64(l.arity), nil
	}

	for !r.done() {
		if len(labels) == 0 {
			return nil, fmt.Errorf("code after function end: %w", ErrMalformed)
		}
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		pc := len(cf.code)
		in := instr{op: uint16(op)}
		switch op {
		case opBlock, opLoop, opIf:
			bt, err := r.s33()
			if err != nil {
				return nil, err
			}
			arity, err := blockArity(m, bt)
			if err != nil {
				return nil, err
			}
			if op == opIf {
				move(-1)
			}
			labels = append(labels, ctrl{op: op, pc: pc, height: height, arity: arity, elsePC: -1})

		case opElse:
			top := &labels[len(labels)-1]
			if len(labels) == 1 {
				return nil, fmt.Errorf("else without if: %w", ErrMalformed)
			}
			if top.op != opIf || top.elsePC >= 0 {
				return nil, fmt.Errorf("else inside non-if block: %w", ErrMalformed)
			}
			top.elsePC = pc
			height = top.height
			top.unreachable = false

		case opEnd:
			top := labels[len(labels)-1]
			labels = labels[:len(labels)-1]
			cont := pc + 1
			if len(labels) == 0 {
				// The function's own end returns its results.
				in.op = opReturn
				cont = pc
			} else {
				height = top.height
				move(top.arity)
			}
			if top.op == opIf {
				cf.code[top.pc].imm0 = uint64(cont)
				if top.elsePC >= 0 {
					cf.code[top.pc].imm0 = uint64(top.elsePC + 1)
					cf.code[top.elsePC].imm0 = uint64(cont)
				}
			}
			for _, fx := range top.fixups {
				t := &cf.code[fx.pc].imm0
				if fx.arm >= 0 {
					t = &cf.code[fx.pc].tbl[fx.arm]
				}
				*t |= uint64(cont) << 32
			}

		case opBr, opBrIf:
			d, err := r.u32()
			if err != nil {
				return nil, err
			}
			if op == opBrIf {
				move(-1)
			}
			if in.imm0, in.imm1, err = target(d, fixup{pc, -1}); err != nil {
				return nil, err
			}
			if op == opBr {
				unreachable()
			}

		case opBrTable:
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			move(-1)
			in.tbl = make([]uint64, n+1)
			for i := range in.tbl {
				d, err := r.u32()
				if err != nil {
					return nil, err
				}
				if in.tbl[i], in.imm1, err = target(d, fixup{pc, i}); err != nil {
					return nil, err
				}
			}
			unreachable()

		case opReturn, opUnreachable:
			unreachable()

		case opCall:
			fi, err := r.u32()
			if err != nil {
				return nil, err
			}
			if fi >= nFuncs {
				return nil, fmt.Errorf("call func %d: %w", fi, errIndexOutOfRange)
			}
			in.imm0 = uint64(fi)
			callee, err := m.FuncType(fi)
			if err != nil {
				return nil, err
			}
			move(len(callee.Results) - len(callee.Params))

		case opCallIndirect:
			ti, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(ti) >= len(m.Types) {
				return nil, fmt.Errorf("call_indirect type %d: %w", ti, errIndexOutOfRange)
			}
			if tb, err := r.byte(); err != nil {
				return nil, err
			} else if tb != 0 {
				return nil, fmt.Errorf("call_indirect table %d: %w", tb, ErrUnsupported)
			}
			in.imm0 = uint64(ti)
			move(len(m.Types[ti].Results) - len(m.Types[ti].Params) - 1)

		case opDrop:
			move(-1)
		case opSelect:
			move(-2)

		case opLocalGet, opLocalSet, opLocalTee:
			idx, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(idx) >= cf.numLocals {
				return nil, fmt.Errorf("local %d of %d: %w", idx, cf.numLocals, errIndexOutOfRange)
			}
			in.imm0 = uint64(idx)
			switch op {
			case opLocalGet:
				move(1)
			case opLocalSet:
				move(-1)
			}

		case opGlobalGet, opGlobalSet:
			idx, err := r.u32()
			if err != nil {
				return nil, err
			}
			if idx >= nGlobals {
				return nil, fmt.Errorf("global %d of %d: %w", idx, nGlobals, errIndexOutOfRange)
			}
			in.imm0 = uint64(idx)
			if op == opGlobalGet {
				move(1)
			} else {
				move(-1)
			}

		case opI32Const:
			v, err := r.s32()
			if err != nil {
				return nil, err
			}
			in.imm0 = uint64(uint32(v))
			move(1)
		case opI64Const:
			v, err := r.s64()
			if err != nil {
				return nil, err
			}
			in.imm0 = uint64(v)
			move(1)
		case opF32Const:
			b, err := r.bytes(4)
			if err != nil {
				return nil, err
			}
			in.imm0 = uint64(binary.LittleEndian.Uint32(b))
			move(1)
		case opF64Const:
			b, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			in.imm0 = binary.LittleEndian.Uint64(b)
			move(1)

		case opMemorySize, opMemoryGrow:
			if mb, err := r.byte(); err != nil {
				return nil, err
			} else if mb != 0 {
				return nil, fmt.Errorf("memory index %d: %w", mb, ErrUnsupported)
			}
			if op == opMemorySize {
				move(1)
			}

		case opPrefixFC:
			sub, err := r.u32()
			if err != nil {
				return nil, err
			}
			switch sub {
			case 10: // memory.copy
				if _, err := r.bytes(2); err != nil { // two memory indices
					return nil, err
				}
				in.op = opMemoryCopySyn
			case 11: // memory.fill
				if _, err := r.byte(); err != nil {
					return nil, err
				}
				in.op = opMemoryFillSyn
			default:
				return nil, fmt.Errorf("0xFC opcode %d: %w", sub, ErrUnsupported)
			}
			move(-3)

		default:
			if op >= opI32Load && op <= opI64Store32 {
				// memarg: alignment hint (discarded) + offset.
				if _, err := r.u32(); err != nil {
					return nil, err
				}
				off, err := r.u32()
				if err != nil {
					return nil, err
				}
				in.imm0 = uint64(off)
			} else if !knownOpcode(op) {
				return nil, fmt.Errorf("opcode 0x%02x: %w", op, ErrUnsupported)
			}
			sig := simpleSignatures[op]
			move(len(sig.results) - len(sig.params))
		}
		cf.code = append(cf.code, in)
	}

	switch len(labels) {
	case 0:
		return cf, nil
	case 1:
		return nil, fmt.Errorf("function body not terminated by end: %w", ErrMalformed)
	default:
		return nil, fmt.Errorf("%d unterminated blocks: %w", len(labels)-1, ErrMalformed)
	}
}

// fuse rewrites the hot instruction runs of a compiled body into
// superinstructions (opcodes.go lists the table), in place. A fused run's
// first slot holds the superinstruction, which executes the whole run and
// skips the rest; those slots keep their original instrs but are never
// dispatched, and an immediate the first slot cannot hold is read from
// them. No index moves, so every resolved branch target stays valid.
//
// No run may contain a branch target past its first slot, or a branch
// would land mid-run. That holds by construction: every target is the
// slot after a loop, end or else, or the final end (see compileFunc), and
// a run holds no structured-control instr, so each later slot of a run
// follows a fusable instr, never a marker. A br or br_if may only end a
// run.
//
// A load or store joins a run only when nothing before it in the run
// writes memory or a global (in every form here only local.gets precede
// it), so a trap leaves memory and globals exactly as the unfused body
// does, with the same error.
func fuse(code []instr) {
	op := func(i int) uint16 {
		if i < len(code) {
			return code[i].op
		}
		return opUnreachable
	}
	for i := 0; i < len(code); i += span(code[i].op) {
		in := &code[i]
		next, third := op(i+1), op(i+2)
		switch {
		case in.op == opLocalGet && next == opLocalGet && isI32Cmp(third) && op(i+3) == opBrIf:
			*in = instr{op: opBrIfLocal2I32Eq + (third - opI32Eq), imm0: in.imm0, imm1: code[i+1].imm0}
		case in.op == opLocalGet && isI32Cmp(next) && third == opBrIf:
			in.op = opBrIfLocalI32Eq + (next - opI32Eq)
		case in.op == opLocalGet && next == opLocalGet && local2Op(third) != 0:
			*in = instr{op: local2Op(third), imm0: in.imm0, imm1: code[i+1].imm0}
		case in.op == opLocalGet && next == opI32Const && third == opI32Add:
			fused := instr{op: opLocalGetI32AddC, imm0: in.imm0, imm1: code[i+1].imm0}
			if op(i+3) == opLocalSet && code[i+3].imm0 == in.imm0 {
				fused.op = opLocalI32AddCSet
				if op(i+4) == opBr && branchesToLoop(code, code[i+4].imm0) {
					fused.op = opLocalStepBr
				}
			}
			*in = fused
		case in.op == opLocalGet && next == opI64Const && third == opI64Mul:
			*in = instr{op: opLocalGetI64MulC, imm0: in.imm0, imm1: code[i+1].imm0}
		case in.op == opLocalGet && (next == opI32Load8U || next == opI64Load8U):
			*in = instr{op: opLocalLoad8U, imm0: in.imm0, imm1: code[i+1].imm0}
		case in.op == opLocalGet && next == opLocalGet:
			*in = instr{op: opLocalGet2, imm0: in.imm0, imm1: code[i+1].imm0}
		case in.op == opI32Const && next == opI32Add:
			in.op = opI32AddC
		case in.op == opI32Const && next == opI32Mul:
			in.op = opI32MulC
		case in.op == opI64Const && (next == opI64Add || next == opI64Mul) && third == opLocalSet:
			fused := instr{op: opI64AddCSet, imm0: in.imm0, imm1: code[i+2].imm0}
			if next == opI64Mul {
				fused.op = opI64MulCSet
			}
			*in = fused
		case in.op == opI64Const && next == opI64Add:
			in.op = opI64AddC
		case in.op == opI64Const && next == opI64Mul:
			in.op = opI64MulC
		case in.op == opI64Add && next == opLocalSet:
			*in = instr{op: opI64AddSet, imm0: code[i+1].imm0}
		case in.op >= opI32Eqz && in.op <= opI64GeU && next == opBrIf:
			*in = instr{op: opBrIfI32Eqz + (in.op - opI32Eqz), imm0: code[i+1].imm0, imm1: code[i+1].imm1}
		}
	}
}

// isI32Cmp reports whether op is a two-operand i32 comparison, i32.eq..i32.ge_u.
func isI32Cmp(op uint16) bool { return op >= opI32Eq && op <= opI32GeU }

// local2Op is the superinstruction for local.get a; local.get b; op, or 0
// when op has none.
func local2Op(op uint16) uint16 {
	switch op {
	case opI64Store:
		return opLocal2I64Store
	case opI32Store:
		return opLocal2I32Store
	case opI32Store8:
		return opLocal2I32Store8
	case opI64Load:
		return opLocal2I64Load
	}
	return 0
}

// branchesToLoop reports whether a resolved branch target lands on a
// loop's first instruction: only a loop's target is the slot after it.
func branchesToLoop(code []instr, target uint64) bool {
	pc := int(target >> 32)
	return pc > 0 && code[pc-1].op == opLoop
}

// span is the number of slots an instr covers: its run's length for a
// superinstruction, 1 for everything else.
func span(op uint16) int {
	switch {
	case op == opLocalStepBr:
		return 5
	case op == opLocalI32AddCSet, op >= opBrIfLocal2I32Eq && op <= opBrIfLocal2I32GeU:
		return 4
	case op == opLocalGetI32AddC, op >= opLocal2I64Store && op <= opLocal2I64Load,
		op == opLocalGetI64MulC, op == opI64AddCSet, op == opI64MulCSet,
		op >= opBrIfLocalI32Eq && op <= opBrIfLocalI32GeU:
		return 3
	case op == opLocalGet2, op == opLocalLoad8U, op == opI64AddSet,
		op >= opI32AddC && op <= opI64MulC, op >= opBrIfI32Eqz && op <= opBrIfI64GeU:
		return 2
	default:
		return 1
	}
}

// knownOpcode reports whether the immediate-free opcode is implemented.
func knownOpcode(op byte) bool {
	switch op {
	case opUnreachable, opNop, opReturn, opDrop, opSelect:
		return true
	}
	switch {
	case op >= opI32Eqz && op <= opI64Extend32S:
		return true
	default:
		return false
	}
}
