package wasm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// execFrame is the recycled scratch of one interpreter frame: operand
// stack and locals. An Instance keeps one frame per call depth and executes
// one call tree at a time (callers serialize, as the shim's VM lock does),
// so a warm call reuses the frames its predecessors grew and allocates
// nothing.
type execFrame struct {
	st     []uint64
	locals []uint64
}

// frame returns the recycled frame for the given call depth, growing the
// per-instance stack on first descent.
func (inst *Instance) frame(depth int) *execFrame {
	for len(inst.frames) <= depth {
		inst.frames = append(inst.frames, &execFrame{})
	}
	return inst.frames[depth]
}

func (inst *Instance) call(fnIdx uint32, args []uint64) ([]uint64, error) {
	return inst.invoke(fnIdx, args, 0)
}

// invoke runs one function. The returned slice aliases the depth's recycled
// frame (or the host function's own return): it is valid until the next
// call on this instance, which every caller respects by consuming results
// before calling again.
func (inst *Instance) invoke(fnIdx uint32, args []uint64, depth int) ([]uint64, error) {
	if depth > inst.maxDepth {
		return nil, TrapCallDepth
	}
	f := &inst.funcs[fnIdx]
	fr := inst.frame(depth)
	if f.host != nil {
		// Pass a frame-owned copy of args so the incoming slice does not
		// leak into the host call: it keeps callers' variadic argument
		// slices on their stacks.
		if cap(fr.locals) < len(args) {
			fr.locals = make([]uint64, len(args))
		}
		hargs := fr.locals[:len(args)]
		copy(hargs, args)
		return f.host.Fn(&inst.hostCtx, hargs)
	}
	if cap(fr.locals) < f.cf.numLocals {
		fr.locals = make([]uint64, f.cf.numLocals)
	}
	locals := fr.locals[:f.cf.numLocals]
	n := copy(locals, args)
	// Wasm locals beyond the parameters start at zero; a recycled frame
	// still holds the previous call's values.
	clear(locals[n:])
	if len(fr.st) < f.cf.maxStack {
		fr.st = make([]uint64, f.cf.maxStack)
	}
	return inst.exec(f.cf, fr.st, locals, depth)
}

// exec runs one compiled body. The operand stack holds raw 64-bit values:
// i32 in the low 32 bits, floats as IEEE bits. st is the depth's frame
// stack, presized to the body's maxStack, and st[:sp] is live; validation
// fixes every height, so pushes index it directly and branches are the
// pre-resolved jumps of compileFunc.
func (inst *Instance) exec(cf *compiledFunc, st, locals []uint64, depth int) ([]uint64, error) {
	var (
		sp   int
		code = cf.code
		mem  = inst.mem
	)
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.op {
		case opUnreachable:
			return nil, TrapUnreachable
		case opNop, opBlock, opLoop, opEnd:

		case opIf:
			sp--
			if st[sp] == 0 {
				pc = int(in.imm0) - 1
			}
		case opElse:
			pc = int(in.imm0) - 1

		case opBr:
			pc, sp = branch(st, sp, in.imm0, in.imm1)
		case opBrIf:
			sp--
			if st[sp] != 0 {
				pc, sp = branch(st, sp, in.imm0, in.imm1)
			}
		case opBrTable:
			sp--
			t := in.tbl[len(in.tbl)-1]
			if idx := uint32(st[sp]); idx < uint32(len(in.tbl)-1) {
				t = in.tbl[idx]
			}
			pc, sp = branch(st, sp, t, in.imm1)

		case opReturn:
			// Results alias the frame; the caller consumes them before the
			// frame's next use (see invoke).
			return st[sp-cf.numResults : sp], nil

		case opCall:
			var err error
			if sp, err = inst.doCall(uint32(in.imm0), st, sp, depth); err != nil {
				return nil, err
			}
		case opCallIndirect:
			sp--
			elem := uint32(st[sp])
			if inst.table == nil || int(elem) >= len(inst.table) {
				return nil, TrapUndefinedElement
			}
			fi := inst.table[elem]
			if fi < 0 {
				return nil, TrapUndefinedElement
			}
			want := inst.module.Types[in.imm0]
			if !inst.funcs[fi].typ.Equal(want) {
				return nil, TrapIndirectType
			}
			var err error
			if sp, err = inst.doCall(uint32(fi), st, sp, depth); err != nil {
				return nil, err
			}

		case opDrop:
			sp--
		case opSelect:
			sp -= 2
			if st[sp+1] == 0 {
				st[sp-1] = st[sp]
			}

		case opLocalGet:
			st[sp] = locals[in.imm0]
			sp++
		case opLocalSet:
			sp--
			locals[in.imm0] = st[sp]
		case opLocalTee:
			locals[in.imm0] = st[sp-1]
		case opGlobalGet:
			st[sp] = inst.globals[in.imm0]
			sp++
		case opGlobalSet:
			if !inst.globmut[in.imm0] {
				return nil, fmt.Errorf("global %d: %w", in.imm0, ErrGlobalImmutable)
			}
			sp--
			inst.globals[in.imm0] = st[sp]

		case opI32Const, opI64Const, opF32Const, opF64Const:
			st[sp] = in.imm0
			sp++

		// ---- superinstructions (fuse); each skips its run's dead slots ----
		case opLocalGet2:
			st[sp] = locals[in.imm0]
			st[sp+1] = locals[in.imm1]
			sp += 2
			pc++
		case opLocalGetI32AddC:
			st[sp] = uint64(uint32(locals[in.imm0]) + uint32(in.imm1))
			sp++
			pc += 2
		case opLocalI32AddCSet:
			locals[in.imm0] = uint64(uint32(locals[in.imm0]) + uint32(in.imm1))
			pc += 3
		case opI32AddC:
			st[sp-1] = uint64(uint32(st[sp-1]) + uint32(in.imm0))
			pc++
		case opI32MulC:
			st[sp-1] = uint64(uint32(st[sp-1]) * uint32(in.imm0))
			pc++
		case opI64AddC:
			st[sp-1] += in.imm0
			pc++
		case opI64MulC:
			st[sp-1] *= in.imm0
			pc++
		case opLocal2I64Store:
			ea := uint64(uint32(locals[in.imm0])) + code[pc+2].imm0
			if ea+8 > uint64(len(mem.data)) {
				return nil, mem.store(ea, 8, locals[in.imm1])
			}
			binary.LittleEndian.PutUint64(mem.data[ea:], locals[in.imm1])
			pc += 2
		case opLocal2I32Store:
			ea := uint64(uint32(locals[in.imm0])) + code[pc+2].imm0
			if ea+4 > uint64(len(mem.data)) {
				return nil, mem.store(ea, 4, locals[in.imm1])
			}
			binary.LittleEndian.PutUint32(mem.data[ea:], uint32(locals[in.imm1]))
			pc += 2
		case opLocal2I32Store8:
			ea := uint64(uint32(locals[in.imm0])) + code[pc+2].imm0
			if ea >= uint64(len(mem.data)) {
				return nil, mem.store(ea, 1, locals[in.imm1])
			}
			mem.data[ea] = byte(locals[in.imm1])
			pc += 2
		case opLocal2I64Load:
			ea := uint64(uint32(locals[in.imm1])) + code[pc+2].imm0
			if ea+8 > uint64(len(mem.data)) {
				_, err := mem.load(ea, 8)
				return nil, err
			}
			st[sp] = locals[in.imm0]
			st[sp+1] = binary.LittleEndian.Uint64(mem.data[ea:])
			sp += 2
			pc += 2
		case opLocalLoad8U:
			ea := uint64(uint32(locals[in.imm0])) + in.imm1
			if ea >= uint64(len(mem.data)) {
				_, err := mem.load(ea, 1)
				return nil, err
			}
			st[sp] = uint64(mem.data[ea])
			sp++
			pc++
		case opLocalGetI64MulC:
			st[sp] = locals[in.imm0] * in.imm1
			sp++
			pc += 2
		case opI64AddCSet:
			sp--
			locals[in.imm1] = st[sp] + in.imm0
			pc += 2
		case opI64MulCSet:
			sp--
			locals[in.imm1] = st[sp] * in.imm0
			pc += 2
		case opI64AddSet:
			sp -= 2
			locals[in.imm0] = st[sp] + st[sp+1]
			pc++
		case opLocalStepBr:
			// The br targets a loop: it carries nothing and lands on loop+1.
			locals[in.imm0] = uint64(uint32(locals[in.imm0]) + uint32(in.imm1))
			t := code[pc+4].imm0
			pc, sp = int(t>>32)-1, int(uint32(t))

		case opBrIfLocal2I32Eq:
			pc, sp = brIf(uint32(locals[in.imm0]) == uint32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32Ne:
			pc, sp = brIf(uint32(locals[in.imm0]) != uint32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32LtS:
			pc, sp = brIf(int32(locals[in.imm0]) < int32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32LtU:
			pc, sp = brIf(uint32(locals[in.imm0]) < uint32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32GtS:
			pc, sp = brIf(int32(locals[in.imm0]) > int32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32GtU:
			pc, sp = brIf(uint32(locals[in.imm0]) > uint32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32LeS:
			pc, sp = brIf(int32(locals[in.imm0]) <= int32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32LeU:
			pc, sp = brIf(uint32(locals[in.imm0]) <= uint32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32GeS:
			pc, sp = brIf(int32(locals[in.imm0]) >= int32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])
		case opBrIfLocal2I32GeU:
			pc, sp = brIf(uint32(locals[in.imm0]) >= uint32(locals[in.imm1]), st, sp, pc, 3, &code[pc+3])

		case opBrIfLocalI32Eq:
			sp--
			pc, sp = brIf(uint32(st[sp]) == uint32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32Ne:
			sp--
			pc, sp = brIf(uint32(st[sp]) != uint32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32LtS:
			sp--
			pc, sp = brIf(int32(st[sp]) < int32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32LtU:
			sp--
			pc, sp = brIf(uint32(st[sp]) < uint32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32GtS:
			sp--
			pc, sp = brIf(int32(st[sp]) > int32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32GtU:
			sp--
			pc, sp = brIf(uint32(st[sp]) > uint32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32LeS:
			sp--
			pc, sp = brIf(int32(st[sp]) <= int32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32LeU:
			sp--
			pc, sp = brIf(uint32(st[sp]) <= uint32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32GeS:
			sp--
			pc, sp = brIf(int32(st[sp]) >= int32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])
		case opBrIfLocalI32GeU:
			sp--
			pc, sp = brIf(uint32(st[sp]) >= uint32(locals[in.imm0]), st, sp, pc, 2, &code[pc+2])

		case opBrIfI32Eqz:
			sp--
			pc, sp = brIf(uint32(st[sp]) == 0, st, sp, pc, 1, in)
		case opBrIfI32Eq:
			sp -= 2
			pc, sp = brIf(uint32(st[sp]) == uint32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32Ne:
			sp -= 2
			pc, sp = brIf(uint32(st[sp]) != uint32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32LtS:
			sp -= 2
			pc, sp = brIf(int32(st[sp]) < int32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32LtU:
			sp -= 2
			pc, sp = brIf(uint32(st[sp]) < uint32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32GtS:
			sp -= 2
			pc, sp = brIf(int32(st[sp]) > int32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32GtU:
			sp -= 2
			pc, sp = brIf(uint32(st[sp]) > uint32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32LeS:
			sp -= 2
			pc, sp = brIf(int32(st[sp]) <= int32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32LeU:
			sp -= 2
			pc, sp = brIf(uint32(st[sp]) <= uint32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32GeS:
			sp -= 2
			pc, sp = brIf(int32(st[sp]) >= int32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI32GeU:
			sp -= 2
			pc, sp = brIf(uint32(st[sp]) >= uint32(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI64Eqz:
			sp--
			pc, sp = brIf(st[sp] == 0, st, sp, pc, 1, in)
		case opBrIfI64Eq:
			sp -= 2
			pc, sp = brIf(st[sp] == st[sp+1], st, sp, pc, 1, in)
		case opBrIfI64Ne:
			sp -= 2
			pc, sp = brIf(st[sp] != st[sp+1], st, sp, pc, 1, in)
		case opBrIfI64LtS:
			sp -= 2
			pc, sp = brIf(int64(st[sp]) < int64(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI64LtU:
			sp -= 2
			pc, sp = brIf(st[sp] < st[sp+1], st, sp, pc, 1, in)
		case opBrIfI64GtS:
			sp -= 2
			pc, sp = brIf(int64(st[sp]) > int64(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI64GtU:
			sp -= 2
			pc, sp = brIf(st[sp] > st[sp+1], st, sp, pc, 1, in)
		case opBrIfI64LeS:
			sp -= 2
			pc, sp = brIf(int64(st[sp]) <= int64(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI64LeU:
			sp -= 2
			pc, sp = brIf(st[sp] <= st[sp+1], st, sp, pc, 1, in)
		case opBrIfI64GeS:
			sp -= 2
			pc, sp = brIf(int64(st[sp]) >= int64(st[sp+1]), st, sp, pc, 1, in)
		case opBrIfI64GeU:
			sp -= 2
			pc, sp = brIf(st[sp] >= st[sp+1], st, sp, pc, 1, in)

		// ---- memory ----
		// Each access makes one inline comparison against the memory size;
		// an out-of-bounds access falls through to load/store, which build
		// the TrapOutOfBounds error.
		case opI32Load, opF32Load, opI64Load32U:
			ea := uint64(uint32(st[sp-1])) + in.imm0
			if ea+4 > uint64(len(mem.data)) {
				_, err := mem.load(ea, 4)
				return nil, err
			}
			st[sp-1] = uint64(binary.LittleEndian.Uint32(mem.data[ea:]))
		case opI64Load, opF64Load:
			ea := uint64(uint32(st[sp-1])) + in.imm0
			if ea+8 > uint64(len(mem.data)) {
				_, err := mem.load(ea, 8)
				return nil, err
			}
			st[sp-1] = binary.LittleEndian.Uint64(mem.data[ea:])
		case opI32Load8U, opI64Load8U:
			ea := uint64(uint32(st[sp-1])) + in.imm0
			if ea >= uint64(len(mem.data)) {
				_, err := mem.load(ea, 1)
				return nil, err
			}
			st[sp-1] = uint64(mem.data[ea])
		case opI32Load16U, opI64Load16U:
			ea := uint64(uint32(st[sp-1])) + in.imm0
			if ea+2 > uint64(len(mem.data)) {
				_, err := mem.load(ea, 2)
				return nil, err
			}
			st[sp-1] = uint64(binary.LittleEndian.Uint16(mem.data[ea:]))
		case opI32Load8S:
			v, err := mem.load(uint64(uint32(st[sp-1]))+in.imm0, 1)
			if err != nil {
				return nil, err
			}
			st[sp-1] = uint64(uint32(int32(int8(v))))
		case opI32Load16S:
			v, err := mem.load(uint64(uint32(st[sp-1]))+in.imm0, 2)
			if err != nil {
				return nil, err
			}
			st[sp-1] = uint64(uint32(int32(int16(v))))
		case opI64Load8S:
			v, err := mem.load(uint64(uint32(st[sp-1]))+in.imm0, 1)
			if err != nil {
				return nil, err
			}
			st[sp-1] = uint64(int64(int8(v)))
		case opI64Load16S:
			v, err := mem.load(uint64(uint32(st[sp-1]))+in.imm0, 2)
			if err != nil {
				return nil, err
			}
			st[sp-1] = uint64(int64(int16(v)))
		case opI64Load32S:
			v, err := mem.load(uint64(uint32(st[sp-1]))+in.imm0, 4)
			if err != nil {
				return nil, err
			}
			st[sp-1] = uint64(int64(int32(v)))

		case opI32Store, opF32Store, opI64Store32:
			sp -= 2
			ea := uint64(uint32(st[sp])) + in.imm0
			if ea+4 > uint64(len(mem.data)) {
				return nil, mem.store(ea, 4, st[sp+1])
			}
			binary.LittleEndian.PutUint32(mem.data[ea:], uint32(st[sp+1]))
		case opI64Store, opF64Store:
			sp -= 2
			ea := uint64(uint32(st[sp])) + in.imm0
			if ea+8 > uint64(len(mem.data)) {
				return nil, mem.store(ea, 8, st[sp+1])
			}
			binary.LittleEndian.PutUint64(mem.data[ea:], st[sp+1])
		case opI32Store8, opI64Store8:
			sp -= 2
			ea := uint64(uint32(st[sp])) + in.imm0
			if ea >= uint64(len(mem.data)) {
				return nil, mem.store(ea, 1, st[sp+1])
			}
			mem.data[ea] = byte(st[sp+1])
		case opI32Store16, opI64Store16:
			sp -= 2
			ea := uint64(uint32(st[sp])) + in.imm0
			if ea+2 > uint64(len(mem.data)) {
				return nil, mem.store(ea, 2, st[sp+1])
			}
			binary.LittleEndian.PutUint16(mem.data[ea:], uint16(st[sp+1]))

		case opMemorySize:
			st[sp] = uint64(mem.Pages())
			sp++
		case opMemoryGrow:
			st[sp-1] = uint64(uint32(mem.Grow(uint32(st[sp-1]))))
		case opMemoryCopySyn:
			sp -= 3
			dst, src, cnt := st[sp], st[sp+1], st[sp+2]
			if err := mem.copyWithin(uint64(uint32(dst)), uint64(uint32(src)), uint64(uint32(cnt))); err != nil {
				return nil, err
			}
		case opMemoryFillSyn:
			sp -= 3
			dst, val, cnt := st[sp], st[sp+1], st[sp+2]
			if err := mem.fill(uint64(uint32(dst)), uint64(uint32(cnt)), byte(val)); err != nil {
				return nil, err
			}

		// ---- i32 compare ----
		case opI32Eqz:
			st[sp-1] = b2u(uint32(st[sp-1]) == 0)
		case opI32Eq:
			sp = cmp32(st, sp, func(a, b uint32) bool { return a == b })
		case opI32Ne:
			sp = cmp32(st, sp, func(a, b uint32) bool { return a != b })
		case opI32LtS:
			sp = cmp32(st, sp, func(a, b uint32) bool { return int32(a) < int32(b) })
		case opI32LtU:
			sp = cmp32(st, sp, func(a, b uint32) bool { return a < b })
		case opI32GtS:
			sp = cmp32(st, sp, func(a, b uint32) bool { return int32(a) > int32(b) })
		case opI32GtU:
			sp = cmp32(st, sp, func(a, b uint32) bool { return a > b })
		case opI32LeS:
			sp = cmp32(st, sp, func(a, b uint32) bool { return int32(a) <= int32(b) })
		case opI32LeU:
			sp = cmp32(st, sp, func(a, b uint32) bool { return a <= b })
		case opI32GeS:
			sp = cmp32(st, sp, func(a, b uint32) bool { return int32(a) >= int32(b) })
		case opI32GeU:
			sp = cmp32(st, sp, func(a, b uint32) bool { return a >= b })

		// ---- i64 compare ----
		case opI64Eqz:
			n := sp - 1
			st[n] = b2u(st[n] == 0)
		case opI64Eq:
			sp = cmp64(st, sp, func(a, b uint64) bool { return a == b })
		case opI64Ne:
			sp = cmp64(st, sp, func(a, b uint64) bool { return a != b })
		case opI64LtS:
			sp = cmp64(st, sp, func(a, b uint64) bool { return int64(a) < int64(b) })
		case opI64LtU:
			sp = cmp64(st, sp, func(a, b uint64) bool { return a < b })
		case opI64GtS:
			sp = cmp64(st, sp, func(a, b uint64) bool { return int64(a) > int64(b) })
		case opI64GtU:
			sp = cmp64(st, sp, func(a, b uint64) bool { return a > b })
		case opI64LeS:
			sp = cmp64(st, sp, func(a, b uint64) bool { return int64(a) <= int64(b) })
		case opI64LeU:
			sp = cmp64(st, sp, func(a, b uint64) bool { return a <= b })
		case opI64GeS:
			sp = cmp64(st, sp, func(a, b uint64) bool { return int64(a) >= int64(b) })
		case opI64GeU:
			sp = cmp64(st, sp, func(a, b uint64) bool { return a >= b })

		// ---- f32/f64 compare ----
		case opF32Eq:
			sp = cmpF32(st, sp, func(a, b float32) bool { return a == b })
		case opF32Ne:
			sp = cmpF32(st, sp, func(a, b float32) bool { return a != b })
		case opF32Lt:
			sp = cmpF32(st, sp, func(a, b float32) bool { return a < b })
		case opF32Gt:
			sp = cmpF32(st, sp, func(a, b float32) bool { return a > b })
		case opF32Le:
			sp = cmpF32(st, sp, func(a, b float32) bool { return a <= b })
		case opF32Ge:
			sp = cmpF32(st, sp, func(a, b float32) bool { return a >= b })
		case opF64Eq:
			sp = cmpF64(st, sp, func(a, b float64) bool { return a == b })
		case opF64Ne:
			sp = cmpF64(st, sp, func(a, b float64) bool { return a != b })
		case opF64Lt:
			sp = cmpF64(st, sp, func(a, b float64) bool { return a < b })
		case opF64Gt:
			sp = cmpF64(st, sp, func(a, b float64) bool { return a > b })
		case opF64Le:
			sp = cmpF64(st, sp, func(a, b float64) bool { return a <= b })
		case opF64Ge:
			sp = cmpF64(st, sp, func(a, b float64) bool { return a >= b })

		// ---- i32 arithmetic ----
		case opI32Clz:
			n := sp - 1
			st[n] = uint64(bits.LeadingZeros32(uint32(st[n])))
		case opI32Ctz:
			n := sp - 1
			st[n] = uint64(bits.TrailingZeros32(uint32(st[n])))
		case opI32Popcnt:
			n := sp - 1
			st[n] = uint64(bits.OnesCount32(uint32(st[n])))
		case opI32Add:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a + b })
		case opI32Sub:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a - b })
		case opI32Mul:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a * b })
		case opI32DivS:
			n := sp - 1
			a, b := int32(st[n-1]), int32(st[n])
			if b == 0 {
				return nil, TrapDivByZero
			}
			if a == math.MinInt32 && b == -1 {
				return nil, TrapIntegerOverflow
			}
			st[n-1] = uint64(uint32(a / b))
			sp = n
		case opI32DivU:
			n := sp - 1
			a, b := uint32(st[n-1]), uint32(st[n])
			if b == 0 {
				return nil, TrapDivByZero
			}
			st[n-1] = uint64(a / b)
			sp = n
		case opI32RemS:
			n := sp - 1
			a, b := int32(st[n-1]), int32(st[n])
			if b == 0 {
				return nil, TrapDivByZero
			}
			if a == math.MinInt32 && b == -1 {
				st[n-1] = 0
			} else {
				st[n-1] = uint64(uint32(a % b))
			}
			sp = n
		case opI32RemU:
			n := sp - 1
			a, b := uint32(st[n-1]), uint32(st[n])
			if b == 0 {
				return nil, TrapDivByZero
			}
			st[n-1] = uint64(a % b)
			sp = n
		case opI32And:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a & b })
		case opI32Or:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a | b })
		case opI32Xor:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a ^ b })
		case opI32Shl:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a << (b & 31) })
		case opI32ShrS:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) })
		case opI32ShrU:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return a >> (b & 31) })
		case opI32Rotl:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return bits.RotateLeft32(a, int(b&31)) })
		case opI32Rotr:
			sp = bin32(st, sp, func(a, b uint32) uint32 { return bits.RotateLeft32(a, -int(b&31)) })

		// ---- i64 arithmetic ----
		case opI64Clz:
			n := sp - 1
			st[n] = uint64(bits.LeadingZeros64(st[n]))
		case opI64Ctz:
			n := sp - 1
			st[n] = uint64(bits.TrailingZeros64(st[n]))
		case opI64Popcnt:
			n := sp - 1
			st[n] = uint64(bits.OnesCount64(st[n]))
		case opI64Add:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a + b })
		case opI64Sub:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a - b })
		case opI64Mul:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a * b })
		case opI64DivS:
			n := sp - 1
			a, b := int64(st[n-1]), int64(st[n])
			if b == 0 {
				return nil, TrapDivByZero
			}
			if a == math.MinInt64 && b == -1 {
				return nil, TrapIntegerOverflow
			}
			st[n-1] = uint64(a / b)
			sp = n
		case opI64DivU:
			n := sp - 1
			if st[n] == 0 {
				return nil, TrapDivByZero
			}
			st[n-1] = st[n-1] / st[n]
			sp = n
		case opI64RemS:
			n := sp - 1
			a, b := int64(st[n-1]), int64(st[n])
			if b == 0 {
				return nil, TrapDivByZero
			}
			if a == math.MinInt64 && b == -1 {
				st[n-1] = 0
			} else {
				st[n-1] = uint64(a % b)
			}
			sp = n
		case opI64RemU:
			n := sp - 1
			if st[n] == 0 {
				return nil, TrapDivByZero
			}
			st[n-1] = st[n-1] % st[n]
			sp = n
		case opI64And:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a & b })
		case opI64Or:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a | b })
		case opI64Xor:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a ^ b })
		case opI64Shl:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a << (b & 63) })
		case opI64ShrS:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) })
		case opI64ShrU:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return a >> (b & 63) })
		case opI64Rotl:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return bits.RotateLeft64(a, int(b&63)) })
		case opI64Rotr:
			sp = bin64(st, sp, func(a, b uint64) uint64 { return bits.RotateLeft64(a, -int(b&63)) })

		// ---- f32 arithmetic ----
		case opF32Abs:
			un32f(st, sp, func(v float32) float32 { return float32(math.Abs(float64(v))) })
		case opF32Neg:
			n := sp - 1
			st[n] = uint64(uint32(st[n]) ^ 0x8000_0000)
		case opF32Ceil:
			un32f(st, sp, func(v float32) float32 { return float32(math.Ceil(float64(v))) })
		case opF32Floor:
			un32f(st, sp, func(v float32) float32 { return float32(math.Floor(float64(v))) })
		case opF32Trunc:
			un32f(st, sp, func(v float32) float32 { return float32(math.Trunc(float64(v))) })
		case opF32Nearest:
			un32f(st, sp, func(v float32) float32 { return float32(math.RoundToEven(float64(v))) })
		case opF32Sqrt:
			un32f(st, sp, func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
		case opF32Add:
			sp = bin32f(st, sp, func(a, b float32) float32 { return a + b })
		case opF32Sub:
			sp = bin32f(st, sp, func(a, b float32) float32 { return a - b })
		case opF32Mul:
			sp = bin32f(st, sp, func(a, b float32) float32 { return a * b })
		case opF32Div:
			sp = bin32f(st, sp, func(a, b float32) float32 { return a / b })
		case opF32Min:
			sp = bin32f(st, sp, func(a, b float32) float32 { return float32(math.Min(float64(a), float64(b))) })
		case opF32Max:
			sp = bin32f(st, sp, func(a, b float32) float32 { return float32(math.Max(float64(a), float64(b))) })
		case opF32Copysign:
			sp = bin32f(st, sp, func(a, b float32) float32 { return float32(math.Copysign(float64(a), float64(b))) })

		// ---- f64 arithmetic ----
		case opF64Abs:
			un64f(st, sp, math.Abs)
		case opF64Neg:
			n := sp - 1
			st[n] ^= 0x8000_0000_0000_0000
		case opF64Ceil:
			un64f(st, sp, math.Ceil)
		case opF64Floor:
			un64f(st, sp, math.Floor)
		case opF64Trunc:
			un64f(st, sp, math.Trunc)
		case opF64Nearest:
			un64f(st, sp, math.RoundToEven)
		case opF64Sqrt:
			un64f(st, sp, math.Sqrt)
		case opF64Add:
			sp = bin64f(st, sp, func(a, b float64) float64 { return a + b })
		case opF64Sub:
			sp = bin64f(st, sp, func(a, b float64) float64 { return a - b })
		case opF64Mul:
			sp = bin64f(st, sp, func(a, b float64) float64 { return a * b })
		case opF64Div:
			sp = bin64f(st, sp, func(a, b float64) float64 { return a / b })
		case opF64Min:
			sp = bin64f(st, sp, math.Min)
		case opF64Max:
			sp = bin64f(st, sp, math.Max)
		case opF64Copysign:
			sp = bin64f(st, sp, math.Copysign)

		// ---- conversions ----
		case opI32WrapI64:
			n := sp - 1
			st[n] = uint64(uint32(st[n]))
		case opI32TruncF32S:
			n := sp - 1
			v, err := truncS32(float64(math.Float32frombits(uint32(st[n]))))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI32TruncF32U:
			n := sp - 1
			v, err := truncU32(float64(math.Float32frombits(uint32(st[n]))))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI32TruncF64S:
			n := sp - 1
			v, err := truncS32(math.Float64frombits(st[n]))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI32TruncF64U:
			n := sp - 1
			v, err := truncU32(math.Float64frombits(st[n]))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI64ExtendI32S:
			n := sp - 1
			st[n] = uint64(int64(int32(st[n])))
		case opI64ExtendI32U:
			n := sp - 1
			st[n] = uint64(uint32(st[n]))
		case opI64TruncF32S:
			n := sp - 1
			v, err := truncS64(float64(math.Float32frombits(uint32(st[n]))))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI64TruncF32U:
			n := sp - 1
			v, err := truncU64(float64(math.Float32frombits(uint32(st[n]))))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI64TruncF64S:
			n := sp - 1
			v, err := truncS64(math.Float64frombits(st[n]))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opI64TruncF64U:
			n := sp - 1
			v, err := truncU64(math.Float64frombits(st[n]))
			if err != nil {
				return nil, err
			}
			st[n] = v
		case opF32ConvertI32S:
			n := sp - 1
			st[n] = uint64(math.Float32bits(float32(int32(st[n]))))
		case opF32ConvertI32U:
			n := sp - 1
			st[n] = uint64(math.Float32bits(float32(uint32(st[n]))))
		case opF32ConvertI64S:
			n := sp - 1
			st[n] = uint64(math.Float32bits(float32(int64(st[n]))))
		case opF32ConvertI64U:
			n := sp - 1
			st[n] = uint64(math.Float32bits(float32(st[n])))
		case opF32DemoteF64:
			n := sp - 1
			st[n] = uint64(math.Float32bits(float32(math.Float64frombits(st[n]))))
		case opF64ConvertI32S:
			n := sp - 1
			st[n] = math.Float64bits(float64(int32(st[n])))
		case opF64ConvertI32U:
			n := sp - 1
			st[n] = math.Float64bits(float64(uint32(st[n])))
		case opF64ConvertI64S:
			n := sp - 1
			st[n] = math.Float64bits(float64(int64(st[n])))
		case opF64ConvertI64U:
			n := sp - 1
			st[n] = math.Float64bits(float64(st[n]))
		case opF64PromoteF32:
			n := sp - 1
			st[n] = math.Float64bits(float64(math.Float32frombits(uint32(st[n]))))
		case opI32ReinterpretF, opI64ReinterpretF, opF32ReinterpretI, opF64ReinterpretI:
			// Bit-identical in this representation.

		case opI32Extend8S:
			n := sp - 1
			st[n] = uint64(uint32(int32(int8(st[n]))))
		case opI32Extend16S:
			n := sp - 1
			st[n] = uint64(uint32(int32(int16(st[n]))))
		case opI64Extend8S:
			n := sp - 1
			st[n] = uint64(int64(int8(st[n])))
		case opI64Extend16S:
			n := sp - 1
			st[n] = uint64(int64(int16(st[n])))
		case opI64Extend32S:
			n := sp - 1
			st[n] = uint64(int64(int32(st[n])))

		default:
			return nil, fmt.Errorf("exec opcode 0x%02x: %w", in.op, ErrUnsupported)
		}
	}
}

// branch takes a resolved branch (see compileFunc): it moves the arity
// values the label carries down onto its entry height and returns the pc
// before the target — the dispatch loop's pc++ lands on it — and the new
// stack height.
func branch(st []uint64, sp int, target, arity uint64) (int, int) {
	h, a := int(uint32(target)), int(arity)
	if sp != h+a {
		copy(st[h:h+a], st[sp-a:sp])
	}
	return int(target>>32) - 1, h + a
}

// brIf finishes a fused compare-and-br_if whose operands are consumed:
// taken, it branches to br's resolved target; not taken, it skips the
// run's dead slots, the br_if k slots past pc among them.
func brIf(cond bool, st []uint64, sp, pc, k int, br *instr) (int, int) {
	if cond {
		return branch(st, sp, br.imm0, br.imm1)
	}
	return pc + k, sp
}

// doCall calls function fi with the top of the caller's stack st[:sp] as
// its arguments and pushes its results, returning the new height.
func (inst *Instance) doCall(fi uint32, st []uint64, sp, depth int) (int, error) {
	f := &inst.funcs[fi]
	// The callee's arguments are the top of this frame's stack, in place:
	// invoke copies them into the callee frame (or a host scratch) before
	// anything can overwrite them.
	sp -= len(f.typ.Params)
	results, err := inst.invoke(fi, st[sp:sp+len(f.typ.Params)], depth+1)
	if err != nil {
		return 0, fmt.Errorf("call %s: %w", f.name, err)
	}
	if len(results) != len(f.typ.Results) {
		return 0, fmt.Errorf("call %s: %d results, want %d: %w", f.name, len(results), len(f.typ.Results), ErrImportType)
	}
	return sp + copy(st[sp:], results), nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func bin32(st []uint64, sp int, f func(a, b uint32) uint32) int {
	st[sp-2] = uint64(f(uint32(st[sp-2]), uint32(st[sp-1])))
	return sp - 1
}

func bin64(st []uint64, sp int, f func(a, b uint64) uint64) int {
	st[sp-2] = f(st[sp-2], st[sp-1])
	return sp - 1
}

func cmp32(st []uint64, sp int, f func(a, b uint32) bool) int {
	st[sp-2] = b2u(f(uint32(st[sp-2]), uint32(st[sp-1])))
	return sp - 1
}

func cmp64(st []uint64, sp int, f func(a, b uint64) bool) int {
	st[sp-2] = b2u(f(st[sp-2], st[sp-1]))
	return sp - 1
}

func cmpF32(st []uint64, sp int, f func(a, b float32) bool) int {
	st[sp-2] = b2u(f(math.Float32frombits(uint32(st[sp-2])), math.Float32frombits(uint32(st[sp-1]))))
	return sp - 1
}

func cmpF64(st []uint64, sp int, f func(a, b float64) bool) int {
	st[sp-2] = b2u(f(math.Float64frombits(st[sp-2]), math.Float64frombits(st[sp-1])))
	return sp - 1
}

func bin32f(st []uint64, sp int, f func(a, b float32) float32) int {
	st[sp-2] = uint64(math.Float32bits(f(math.Float32frombits(uint32(st[sp-2])), math.Float32frombits(uint32(st[sp-1])))))
	return sp - 1
}

func bin64f(st []uint64, sp int, f func(a, b float64) float64) int {
	st[sp-2] = math.Float64bits(f(math.Float64frombits(st[sp-2]), math.Float64frombits(st[sp-1])))
	return sp - 1
}

func un32f(st []uint64, sp int, f func(v float32) float32) {
	st[sp-1] = uint64(math.Float32bits(f(math.Float32frombits(uint32(st[sp-1])))))
}

func un64f(st []uint64, sp int, f func(v float64) float64) {
	st[sp-1] = math.Float64bits(f(math.Float64frombits(st[sp-1])))
}

func truncS32(v float64) (uint64, error) {
	if math.IsNaN(v) {
		return 0, TrapInvalidConv
	}
	t := math.Trunc(v)
	if t < math.MinInt32 || t > math.MaxInt32 {
		return 0, TrapIntegerOverflow
	}
	return uint64(uint32(int32(t))), nil
}

func truncU32(v float64) (uint64, error) {
	if math.IsNaN(v) {
		return 0, TrapInvalidConv
	}
	t := math.Trunc(v)
	if t < 0 || t > math.MaxUint32 {
		return 0, TrapIntegerOverflow
	}
	return uint64(uint32(t)), nil
}

func truncS64(v float64) (uint64, error) {
	if math.IsNaN(v) {
		return 0, TrapInvalidConv
	}
	t := math.Trunc(v)
	// 2^63 is exactly representable; MaxInt64 is not.
	if t < math.MinInt64 || t >= math.MaxInt64 {
		return 0, TrapIntegerOverflow
	}
	return uint64(int64(t)), nil
}

func truncU64(v float64) (uint64, error) {
	if math.IsNaN(v) {
		return 0, TrapInvalidConv
	}
	t := math.Trunc(v)
	if t < 0 || t >= math.MaxUint64 {
		return 0, TrapIntegerOverflow
	}
	return uint64(t), nil
}
