package wasm

// Core opcodes (WebAssembly MVP binary encodings).
const (
	opUnreachable  = 0x00
	opNop          = 0x01
	opBlock        = 0x02
	opLoop         = 0x03
	opIf           = 0x04
	opElse         = 0x05
	opEnd          = 0x0B
	opBr           = 0x0C
	opBrIf         = 0x0D
	opBrTable      = 0x0E
	opReturn       = 0x0F
	opCall         = 0x10
	opCallIndirect = 0x11

	opDrop   = 0x1A
	opSelect = 0x1B

	opLocalGet  = 0x20
	opLocalSet  = 0x21
	opLocalTee  = 0x22
	opGlobalGet = 0x23
	opGlobalSet = 0x24

	opI32Load    = 0x28
	opI64Load    = 0x29
	opF32Load    = 0x2A
	opF64Load    = 0x2B
	opI32Load8S  = 0x2C
	opI32Load8U  = 0x2D
	opI32Load16S = 0x2E
	opI32Load16U = 0x2F
	opI64Load8S  = 0x30
	opI64Load8U  = 0x31
	opI64Load16S = 0x32
	opI64Load16U = 0x33
	opI64Load32S = 0x34
	opI64Load32U = 0x35
	opI32Store   = 0x36
	opI64Store   = 0x37
	opF32Store   = 0x38
	opF64Store   = 0x39
	opI32Store8  = 0x3A
	opI32Store16 = 0x3B
	opI64Store8  = 0x3C
	opI64Store16 = 0x3D
	opI64Store32 = 0x3E
	opMemorySize = 0x3F
	opMemoryGrow = 0x40

	opI32Const = 0x41
	opI64Const = 0x42
	opF32Const = 0x43
	opF64Const = 0x44

	opI32Eqz = 0x45
	opI32Eq  = 0x46
	opI32Ne  = 0x47
	opI32LtS = 0x48
	opI32LtU = 0x49
	opI32GtS = 0x4A
	opI32GtU = 0x4B
	opI32LeS = 0x4C
	opI32LeU = 0x4D
	opI32GeS = 0x4E
	opI32GeU = 0x4F

	opI64Eqz = 0x50
	opI64Eq  = 0x51
	opI64Ne  = 0x52
	opI64LtS = 0x53
	opI64LtU = 0x54
	opI64GtS = 0x55
	opI64GtU = 0x56
	opI64LeS = 0x57
	opI64LeU = 0x58
	opI64GeS = 0x59
	opI64GeU = 0x5A

	opF32Eq = 0x5B
	opF32Ne = 0x5C
	opF32Lt = 0x5D
	opF32Gt = 0x5E
	opF32Le = 0x5F
	opF32Ge = 0x60

	opF64Eq = 0x61
	opF64Ne = 0x62
	opF64Lt = 0x63
	opF64Gt = 0x64
	opF64Le = 0x65
	opF64Ge = 0x66

	opI32Clz    = 0x67
	opI32Ctz    = 0x68
	opI32Popcnt = 0x69
	opI32Add    = 0x6A
	opI32Sub    = 0x6B
	opI32Mul    = 0x6C
	opI32DivS   = 0x6D
	opI32DivU   = 0x6E
	opI32RemS   = 0x6F
	opI32RemU   = 0x70
	opI32And    = 0x71
	opI32Or     = 0x72
	opI32Xor    = 0x73
	opI32Shl    = 0x74
	opI32ShrS   = 0x75
	opI32ShrU   = 0x76
	opI32Rotl   = 0x77
	opI32Rotr   = 0x78

	opI64Clz    = 0x79
	opI64Ctz    = 0x7A
	opI64Popcnt = 0x7B
	opI64Add    = 0x7C
	opI64Sub    = 0x7D
	opI64Mul    = 0x7E
	opI64DivS   = 0x7F
	opI64DivU   = 0x80
	opI64RemS   = 0x81
	opI64RemU   = 0x82
	opI64And    = 0x83
	opI64Or     = 0x84
	opI64Xor    = 0x85
	opI64Shl    = 0x86
	opI64ShrS   = 0x87
	opI64ShrU   = 0x88
	opI64Rotl   = 0x89
	opI64Rotr   = 0x8A

	opF32Abs      = 0x8B
	opF32Neg      = 0x8C
	opF32Ceil     = 0x8D
	opF32Floor    = 0x8E
	opF32Trunc    = 0x8F
	opF32Nearest  = 0x90
	opF32Sqrt     = 0x91
	opF32Add      = 0x92
	opF32Sub      = 0x93
	opF32Mul      = 0x94
	opF32Div      = 0x95
	opF32Min      = 0x96
	opF32Max      = 0x97
	opF32Copysign = 0x98

	opF64Abs      = 0x99
	opF64Neg      = 0x9A
	opF64Ceil     = 0x9B
	opF64Floor    = 0x9C
	opF64Trunc    = 0x9D
	opF64Nearest  = 0x9E
	opF64Sqrt     = 0x9F
	opF64Add      = 0xA0
	opF64Sub      = 0xA1
	opF64Mul      = 0xA2
	opF64Div      = 0xA3
	opF64Min      = 0xA4
	opF64Max      = 0xA5
	opF64Copysign = 0xA6

	opI32WrapI64      = 0xA7
	opI32TruncF32S    = 0xA8
	opI32TruncF32U    = 0xA9
	opI32TruncF64S    = 0xAA
	opI32TruncF64U    = 0xAB
	opI64ExtendI32S   = 0xAC
	opI64ExtendI32U   = 0xAD
	opI64TruncF32S    = 0xAE
	opI64TruncF32U    = 0xAF
	opI64TruncF64S    = 0xB0
	opI64TruncF64U    = 0xB1
	opF32ConvertI32S  = 0xB2
	opF32ConvertI32U  = 0xB3
	opF32ConvertI64S  = 0xB4
	opF32ConvertI64U  = 0xB5
	opF32DemoteF64    = 0xB6
	opF64ConvertI32S  = 0xB7
	opF64ConvertI32U  = 0xB8
	opF64ConvertI64S  = 0xB9
	opF64ConvertI64U  = 0xBA
	opF64PromoteF32   = 0xBB
	opI32ReinterpretF = 0xBC
	opI64ReinterpretF = 0xBD
	opF32ReinterpretI = 0xBE
	opF64ReinterpretI = 0xBF

	opI32Extend8S  = 0xC0
	opI32Extend16S = 0xC1
	opI64Extend8S  = 0xC2
	opI64Extend16S = 0xC3
	opI64Extend32S = 0xC4

	// opPrefixFC introduces the bulk-memory / saturating-truncation group.
	opPrefixFC = 0xFC
)

// Synthetic opcodes: 0xFC-prefixed instructions remapped into unused
// single-byte space so the interpreter dispatches on one byte.
const (
	opMemoryCopySyn = 0xE0 // 0xFC 10
	opMemoryFillSyn = 0xE1 // 0xFC 11
)

// Superinstructions written by fuse (compile.go). Each replaces the first
// slot of a fixed-length run; the run's other slots stay in place, dead.
const (
	opLocalGet2       = 0xE2 // local.get a; local.get b
	opLocalGetI32AddC = 0xE3 // local.get a; i32.const c; i32.add
	opLocalI32AddCSet = 0xE4 // local.get a; i32.const c; i32.add; local.set a
	opI32AddC         = 0xE5 // i32.const c; i32.add
	opI32MulC         = 0xE6 // i32.const c; i32.mul
	opI64AddC         = 0xE7 // i64.const c; i64.add
	opI64MulC         = 0xE8 // i64.const c; i64.mul

	// opBrIfI32Eqz..opBrIfI64GeU fuse an i32/i64 test or comparison
	// (i32.eqz..i64.ge_u) with the br_if that follows it: opBrIfI32Eqz +
	// (cmp - opI32Eqz).
	opBrIfI32Eqz = 0xC5
	opBrIfI32Eq  = 0xC6
	opBrIfI32Ne  = 0xC7
	opBrIfI32LtS = 0xC8
	opBrIfI32LtU = 0xC9
	opBrIfI32GtS = 0xCA
	opBrIfI32GtU = 0xCB
	opBrIfI32LeS = 0xCC
	opBrIfI32LeU = 0xCD
	opBrIfI32GeS = 0xCE
	opBrIfI32GeU = 0xCF
	opBrIfI64Eqz = 0xD0
	opBrIfI64Eq  = 0xD1
	opBrIfI64Ne  = 0xD2
	opBrIfI64LtS = 0xD3
	opBrIfI64LtU = 0xD4
	opBrIfI64GtS = 0xD5
	opBrIfI64GtU = 0xD6
	opBrIfI64LeS = 0xD7
	opBrIfI64LeU = 0xD8
	opBrIfI64GeS = 0xD9
	opBrIfI64GeU = 0xDA
)

// Operand-folding superinstructions, past the one-byte opcode space (which
// is why instr.op is a uint16). An operand comes straight from a local or a
// constant, and a result goes straight into a local, instead of travelling
// through the operand stack. An immediate the fused instr cannot hold (a
// memarg offset, a branch's target and arity) is read from the run's dead
// slot that still holds it.
const (
	opLocal2I64Store  = 0x100 // local.get a; local.get b; i64.store
	opLocal2I32Store  = 0x101 // local.get a; local.get b; i32.store
	opLocal2I32Store8 = 0x102 // local.get a; local.get b; i32.store8
	opLocal2I64Load   = 0x103 // local.get a; local.get b; i64.load: pushes a, then the word at b
	opLocalLoad8U     = 0x104 // local.get a; i32.load8_u or i64.load8_u
	opLocalGetI64MulC = 0x105 // local.get a; i64.const c; i64.mul
	opI64AddCSet      = 0x106 // i64.const c; i64.add; local.set x
	opI64MulCSet      = 0x107 // i64.const c; i64.mul; local.set x
	opI64AddSet       = 0x108 // i64.add; local.set x
	opLocalStepBr     = 0x109 // local.get a; i32.const c; i32.add; local.set a; br L, L a loop

	// opBrIfLocal2I32Eq..opBrIfLocal2I32GeU fuse local.get a; local.get b;
	// an i32 comparison (i32.eq..i32.ge_u); br_if: opBrIfLocal2I32Eq +
	// (cmp - opI32Eq).
	opBrIfLocal2I32Eq  = 0x110
	opBrIfLocal2I32Ne  = 0x111
	opBrIfLocal2I32LtS = 0x112
	opBrIfLocal2I32LtU = 0x113
	opBrIfLocal2I32GtS = 0x114
	opBrIfLocal2I32GtU = 0x115
	opBrIfLocal2I32LeS = 0x116
	opBrIfLocal2I32LeU = 0x117
	opBrIfLocal2I32GeS = 0x118
	opBrIfLocal2I32GeU = 0x119

	// opBrIfLocalI32Eq..opBrIfLocalI32GeU fuse local.get b; an i32
	// comparison; br_if, the left operand already on the stack:
	// opBrIfLocalI32Eq + (cmp - opI32Eq).
	opBrIfLocalI32Eq  = 0x120
	opBrIfLocalI32Ne  = 0x121
	opBrIfLocalI32LtS = 0x122
	opBrIfLocalI32LtU = 0x123
	opBrIfLocalI32GtS = 0x124
	opBrIfLocalI32GtU = 0x125
	opBrIfLocalI32LeS = 0x126
	opBrIfLocalI32LeU = 0x127
	opBrIfLocalI32GeS = 0x128
	opBrIfLocalI32GeU = 0x129
)
