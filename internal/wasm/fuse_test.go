package wasm_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

var i32, i64 = wasm.I32, wasm.I64

// fusionCase is one corpus module: a function export called with each
// argument tuple on a fused and an unfused instance.
type fusionCase struct {
	name  string
	build func(b *wasmbuild.Builder)
	args  [][]uint64
	want  []uint64 // expected first results, aligned with args; nil when only the two runs are compared
}

// fusionCorpus covers the shapes fusion must not change: nested blocks,
// loops whose first instruction starts a fusible run, end and else
// followed by a run, br_if at loop heads and as a back-edge, br_table
// carrying a value past junk, calls, and traps mid-run after memory and
// global writes. The operand-folding forms add every i32 compare on
// locals (aliased operands included), a value-carrying br_if out of a
// folded compare, folded loads and stores at the last valid byte and one
// past, traps after folded stores, local.sets whose target the run also
// reads, and induction steps followed by a br to a block rather than a
// loop. Every function is exported as "f".
var fusionCorpus = []fusionCase{
	{
		name: "nested-blocks",
		build: func(b *wasmbuild.Builder) {
			f := b.NewFunc("f", []wasm.ValType{i32, i32}, []wasm.ValType{i32})
			f.BlockT(i32).
				Block().
				LocalGet(0).LocalGet(1).I32LtU().BrIf(0).
				LocalGet(0).I32Const(3).I32Add().LocalSet(0).
				Block().
				LocalGet(0).I32Const(20).I32GtU().BrIf(1).
				LocalGet(0).I32Const(2).I32Mul().LocalSet(0).
				End().
				LocalGet(0).Br(1).
				End().
				LocalGet(1).I32Const(5).I32Add().
				End().
				I32Const(1000).I32Add()
		},
		args: [][]uint64{{0, 0}, {1, 9}, {9, 1}, {30, 2}, {4, 4}, {0xFFFFFFFF, 0}},
		want: []uint64{1006, 1014, 1024, 1007, 1014, 1004},
	},
	{
		name: "loop-head-run",
		build: func(b *wasmbuild.Builder) {
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i64})
			i := f.AddLocal(i32)
			acc := f.AddLocal(i64)
			f.Block().Loop().
				LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
				LocalGet(acc).LocalGet(i).I64ExtendI32U().I64Const(-7).I64Mul().I64Add().
				I64Const(0x5851F42D4C957F2D).I64Add().LocalSet(acc).
				LocalGet(i).I32Const(1).I32Add().LocalSet(i).
				Br(0).
				End().End().
				LocalGet(acc)
		},
		args: [][]uint64{{0}, {1}, {2}, {100}},
	},
	{
		name: "do-while-back-edge",
		build: func(b *wasmbuild.Builder) {
			// br_if 0 at the loop's tail is a conditional back-edge to a
			// loop head that itself opens a fused run.
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			i := f.AddLocal(i32)
			acc := f.AddLocal(i32)
			f.Loop().
				LocalGet(acc).I32Const(3).I32Mul().LocalGet(i).I32Xor().LocalSet(acc).
				LocalGet(i).I32Const(1).I32Add().LocalSet(i).
				LocalGet(i).LocalGet(0).I32LtU().BrIf(0).
				End().
				LocalGet(acc)
		},
		args: [][]uint64{{0}, {1}, {5}, {64}},
	},
	{
		name: "loop-head-br-if",
		build: func(b *wasmbuild.Builder) {
			// The loop opens with a fused test-and-exit.
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			n := f.AddLocal(i32)
			f.Block().Loop().
				LocalGet(0).I32Eqz().BrIf(1).
				LocalGet(0).I32Const(-1).I32Add().LocalSet(0).
				LocalGet(n).I32Const(1).I32Add().LocalSet(n).
				Br(0).
				End().End().
				LocalGet(n)
		},
		args: [][]uint64{{0}, {1}, {33}},
	},
	{
		name: "else-and-end-then-run",
		build: func(b *wasmbuild.Builder) {
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			r := f.AddLocal(i32)
			f.LocalGet(0).I32Const(10).I32LtU().
				IfT(i32).
				LocalGet(0).LocalGet(0).I32Mul().
				Else().
				LocalGet(0).I32Const(7).I32Add().
				End().
				I32Const(100).I32Add().LocalSet(r).
				LocalGet(0).I32Const(1).I32And().
				If().
				LocalGet(r).I32Const(1).I32Add().LocalSet(r).
				End().
				LocalGet(r).LocalGet(0).I32Add()
		},
		args: [][]uint64{{0}, {3}, {9}, {10}, {11}, {0xFFFFFFFE}},
	},
	{
		name: "br-table",
		build: func(b *wasmbuild.Builder) {
			// Each arm carries 100 past a junk operand, to a different
			// depth; the default lands on the function label.
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			f.BlockT(i32).
				BlockT(i32).
				BlockT(i32).
				I32Const(7).I32Const(100).LocalGet(0).BrTable([]uint32{0, 1, 2}, 3).
				End().
				I32Const(1).I32Add().
				End().
				I32Const(2).I32Mul().
				End().
				I32Const(3).I32Add()
		},
		args: [][]uint64{{0}, {1}, {2}, {3}, {0xFFFFFFFF}},
		want: []uint64{205, 203, 103, 100, 100},
	},
	{
		name: "call-in-loop",
		build: func(b *wasmbuild.Builder) {
			sq := b.NewFunc("", []wasm.ValType{i64}, []wasm.ValType{i64})
			sq.LocalGet(0).LocalGet(0).I64Mul()
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i64})
			acc := f.AddLocal(i64)
			f.Block().Loop().
				LocalGet(0).I32Eqz().BrIf(1).
				LocalGet(acc).LocalGet(0).I64ExtendI32U().Call(sq.Ref()).I64Add().LocalSet(acc).
				LocalGet(0).I32Const(-1).I32Add().LocalSet(0).
				Br(0).
				End().End().
				LocalGet(acc)
		},
		args: [][]uint64{{0}, {1}, {50}},
	},
	{
		name: "div-trap-mid-loop",
		build: func(b *wasmbuild.Builder) {
			// Stores i*i at 4i and bumps a global until i reaches the
			// divisor's zero: the trap leaves a prefix of writes behind.
			b.Memory(1, 1, "memory")
			g := b.Global("g", i64, true, 0)
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			i := f.AddLocal(i32)
			f.Block().Loop().
				LocalGet(i).I32Const(64).I32GeU().BrIf(1).
				LocalGet(i).I32Const(4).I32Mul().LocalGet(i).LocalGet(i).I32Mul().I32Store(0).
				GlobalGet(g).I64Const(3).I64Add().GlobalSet(g).
				I32Const(1000).LocalGet(0).LocalGet(i).I32Sub().I32DivU().Drop().
				LocalGet(i).I32Const(1).I32Add().LocalSet(i).
				Br(0).
				End().End().
				LocalGet(i)
		},
		args: [][]uint64{{5}, {0}, {100}},
	},
	{
		name: "oob-trap-mid-loop",
		build: func(b *wasmbuild.Builder) {
			b.Memory(1, 1, "memory")
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i64})
			acc := f.AddLocal(i64)
			f.Block().Loop().
				LocalGet(0).LocalGet(acc).I64Store(0).
				LocalGet(acc).LocalGet(0).I64Load8U(3).I64Add().I64Const(11).I64Add().LocalSet(acc).
				LocalGet(0).I32Const(4096).I32Add().LocalSet(0).
				Br(0).
				End().End().
				LocalGet(acc)
		},
		args: [][]uint64{{0}, {65000}, {65529}},
	},
	{
		name: "unreachable-after-run",
		build: func(b *wasmbuild.Builder) {
			b.Memory(1, 1, "memory")
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			f.LocalGet(0).LocalGet(0).I32Store8(9).
				LocalGet(0).I32Const(5).I32GtU().
				If().
				LocalGet(0).I32Const(1).I32Add().Unreachable().
				End().
				LocalGet(0).I32Const(1).I32Add()
		},
		args: [][]uint64{{1}, {5}, {6}},
	},
	{
		name: "local-compares",
		build: func(b *wasmbuild.Builder) {
			// Every i32 comparison with both operands from locals, aliased,
			// with the left one on the stack, and with both on the stack,
			// then every i64 comparison: bit k of the result is set when
			// the k-th br_if falls through.
			f := b.NewFunc("f", []wasm.ValType{i32, i32}, []wasm.ValType{i64})
			acc := f.AddLocal(i64)
			bit := int64(1)
			fallThrough := func() {
				f.LocalGet(acc).I64Const(bit).I64Or().LocalSet(acc).End()
				bit <<= 1
			}
			for cmp := byte(0x46); cmp <= 0x4F; cmp++ { // i32.eq..i32.ge_u
				f.Block().LocalGet(0).LocalGet(1).Raw(cmp).BrIf(0)
				fallThrough()
				f.Block().LocalGet(1).LocalGet(1).Raw(cmp).BrIf(0)
				fallThrough()
				f.Block().LocalGet(0).I32Const(8).I32Add().LocalGet(1).Raw(cmp).BrIf(0)
				fallThrough()
				f.Block().LocalGet(0).I32Const(1).I32Xor().LocalGet(1).I32Const(3).I32Xor().Raw(cmp).BrIf(0)
				fallThrough()
			}
			for cmp := byte(0x51); cmp <= 0x5A; cmp++ { // i64.eq..i64.ge_u, on the stack
				f.Block().LocalGet(0).I64ExtendI32S().LocalGet(1).I64ExtendI32U().Raw(cmp).BrIf(0)
				fallThrough()
			}
			f.LocalGet(acc)
		},
		args: [][]uint64{{0, 0}, {1, 2}, {2, 1}, {7, 7}, {0x7FFFFFFF, 0x80000000}, {0x80000000, 0x7FFFFFFF},
			{0xFFFFFFFF, 0}, {0, 0xFFFFFFFF}, {0xFFFFFFF8, 0}, {0x7FFFFFF8, 0x80000000}},
	},
	{
		name: "value-br-if",
		build: func(b *wasmbuild.Builder) {
			// Each br_if out of a folded compare carries the value under
			// its operands past a junk value below it.
			f := b.NewFunc("f", []wasm.ValType{i32, i32}, []wasm.ValType{i32})
			f.BlockT(i32).
				I32Const(7).I32Const(100).LocalGet(0).LocalGet(1).I32LtU().BrIf(0).
				I32Add().
				End().
				BlockT(i32).
				I32Const(9).I32Const(1000).I32Const(5).LocalGet(0).I32GtS().BrIf(0).
				I32Add().
				End().
				I32Add()
		},
		args: [][]uint64{{0, 0}, {1, 2}, {9, 3}, {0xFFFFFFFF, 0}},
		want: []uint64{1107, 1100, 1116, 1107},
	},
	{
		name: "folded-memory",
		build: func(b *wasmbuild.Builder) {
			// Folded stores and loads, aliased and at offsets, near the end
			// of memory: the upper arguments put the last valid byte and one
			// past under each access, so some calls trap after earlier
			// folded stores landed.
			b.Memory(1, 1, "memory")
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i64})
			v := f.AddLocal(i64)
			w := f.AddLocal(i32)
			f.LocalGet(0).I64ExtendI32U().I64Const(0x0101010101010101).I64Mul().LocalSet(v).
				LocalGet(0).I32Const(3).I32Mul().I32Const(1).I32Add().LocalSet(w).
				LocalGet(0).LocalGet(0).I32Store(0).
				LocalGet(0).LocalGet(w).I32Store8(2).
				LocalGet(0).LocalGet(0).I32Store8(5).
				LocalGet(0).LocalGet(v).I64Store(8).
				LocalGet(0).LocalGet(w).I32Store(12).
				LocalGet(v).LocalGet(0).I64Load(4).I64Sub().
				LocalGet(0).I64Load8U(9).I64Add().
				LocalGet(0).I32Load8U(5).I64ExtendI32U().I64Add()
		},
		args: [][]uint64{{0}, {100}, {65520}, {65521}, {65531}, {65532}, {65533}, {0xFFFFFFFF}},
	},
	{
		name: "folded-store-loop-trap",
		build: func(b *wasmbuild.Builder) {
			// A loop of folded stores and loads that runs off the end of
			// memory: the trap leaves every earlier store behind.
			b.Memory(1, 1, "memory")
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i64})
			v := f.AddLocal(i64)
			f.Block().Loop().
				LocalGet(0).LocalGet(v).I64Store(0).
				LocalGet(v).I64Const(6364136223846793005).I64Mul().I64Const(1).I64Add().LocalSet(v).
				LocalGet(v).LocalGet(0).I64Load(3).I64Xor().LocalSet(v).
				LocalGet(0).I32Const(4093).I32Add().LocalSet(0).
				Br(0).
				End().End().
				LocalGet(v)
		},
		args: [][]uint64{{0}, {7}, {65528}, {65529}},
	},
	{
		name: "set-target-is-source",
		build: func(b *wasmbuild.Builder) {
			// Each local.set writes a local its run also reads; the last
			// step sets a different local than it reads, so it is no
			// induction step.
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i64})
			i := f.AddLocal(i32)
			j := f.AddLocal(i32)
			x := f.AddLocal(i64)
			f.LocalGet(0).I64ExtendI32U().LocalSet(x).
				Block().Loop().
				LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
				LocalGet(x).I64Const(3).I64Mul().LocalGet(x).I64Add().LocalSet(x).
				LocalGet(x).I64Const(-5).I64Add().LocalSet(x).
				LocalGet(x).I64Const(7).I64Mul().LocalSet(x).
				LocalGet(x).LocalGet(x).I64Add().LocalSet(x).
				LocalGet(i).LocalSet(j).
				LocalGet(j).I32Const(1).I32Add().LocalSet(i).
				Br(0).
				End().End().
				LocalGet(x)
		},
		args: [][]uint64{{0}, {1}, {2}, {77}},
	},
	{
		name: "step-br-targets",
		build: func(b *wasmbuild.Builder) {
			// Induction steps followed by a br to a block that carries a
			// value, to a block that carries none, and to the loop with a
			// junk value on the stack.
			f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
			i := f.AddLocal(i32)
			acc := f.AddLocal(i32)
			f.Block().Loop().
				LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
				BlockT(i32).
				I32Const(5).
				LocalGet(acc).I32Const(3).I32Add().LocalSet(acc).Br(0).
				End().
				LocalGet(acc).I32Add().LocalSet(acc).
				Block().
				LocalGet(acc).I32Const(1).I32Add().LocalSet(acc).Br(0).
				End().
				I32Const(99).
				LocalGet(i).I32Const(1).I32Add().LocalSet(i).Br(0).
				End().End().
				// A second loop whose only in-loop branch is the step's
				// back-edge, which must drop the junk every iteration.
				I32Const(0).LocalSet(i).
				Block().Loop().
				LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
				I32Const(99).
				LocalGet(i).I32Const(1).I32Add().LocalSet(i).Br(0).
				End().End().
				LocalGet(acc).LocalGet(i).I32Add()
		},
		args: [][]uint64{{0}, {1}, {10}},
		want: []uint64{0, 10, 100},
	},
}

// errorsAlike reports whether two call errors agree: both nil, or the same
// trap (errors.Is) with the same text.
func errorsAlike(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for _, trap := range []error{wasm.TrapUnreachable, wasm.TrapOutOfBounds, wasm.TrapDivByZero,
		wasm.TrapIntegerOverflow, wasm.TrapInvalidConv, wasm.TrapCallDepth,
		wasm.TrapUndefinedElement, wasm.TrapIndirectType} {
		if errors.Is(a, trap) != errors.Is(b, trap) {
			return false
		}
	}
	return a.Error() == b.Error()
}

// fusedPair decodes bin and instantiates it twice: as Instantiate does, and
// with every body left unfused.
func fusedPair(t *testing.T, bin []byte, imports wasm.Imports) (fused, unfused *wasm.Instance, nFused int) {
	t.Helper()
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if nFused, err = wasm.CheckFusedLayout(m); err != nil {
		t.Fatalf("fused layout: %v", err)
	}
	if fused, err = wasm.Instantiate(m, imports, nil); err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if unfused, err = wasm.InstantiateUnfused(m, imports, nil); err != nil {
		t.Fatalf("instantiate unfused: %v", err)
	}
	return fused, unfused, nFused
}

// TestFusionPreservesSemantics runs the corpus fused and unfused and
// requires identical results, trap errors, linear memory and globals.
func TestFusionPreservesSemantics(t *testing.T) {
	for _, c := range fusionCorpus {
		t.Run(c.name, func(t *testing.T) {
			b := wasmbuild.New()
			c.build(b)
			fused, unfused, n := fusedPair(t, b.Build(), nil)
			if n == 0 {
				t.Fatal("corpus case fuses nothing")
			}
			for k, args := range c.args {
				got, gerr := fused.Call("f", args...)
				got = append([]uint64(nil), got...)
				want, werr := unfused.Call("f", args...)
				if !errorsAlike(gerr, werr) {
					t.Fatalf("f%v: fused err %v, unfused err %v", args, gerr, werr)
				}
				if len(got) != len(want) || (len(got) > 0 && got[0] != want[0]) {
					t.Fatalf("f%v: fused %v, unfused %v", args, got, want)
				}
				if c.want != nil && (len(got) != 1 || got[0] != c.want[k]) {
					t.Fatalf("f%v = %v, want %d", args, got, c.want[k])
				}
			}
			if fm, um := fused.Memory(), unfused.Memory(); fm != nil {
				fv, _ := fm.View(0, uint32(fm.Size()))
				uv, _ := um.View(0, uint32(um.Size()))
				if !bytes.Equal(fv, uv) {
					t.Fatal("linear memory diverges")
				}
			}
			for _, e := range fused.Exports() {
				if e.Kind != wasm.ExternGlobal {
					continue
				}
				fg, _ := fused.GlobalValue(e.Name)
				ug, _ := unfused.GlobalValue(e.Name)
				if fg != ug {
					t.Fatalf("global %s: fused %d, unfused %d", e.Name, fg, ug)
				}
			}
		})
	}
}

// stubImports satisfies every function import of m with a host function
// that fails if called.
func stubImports(m *wasm.Module) wasm.Imports {
	imports := wasm.Imports{}
	for _, imp := range m.Imports {
		imports.Add(imp.Module, imp.Name, wasm.HostFunc{
			Type: m.Types[imp.TypeIndex],
			Fn: func(*wasm.HostContext, []uint64) ([]uint64, error) {
				return nil, errors.New("stub import called")
			},
		})
	}
	return imports
}

// TestFusionGuestProduceConsume runs the canonical guest's produce and
// consume fused and unfused for every size 0..4096 — word loop, byte tail
// and every remainder mod 8 — against the Go reference.
func TestFusionGuestProduceConsume(t *testing.T) {
	m, err := wasm.Decode(guest.Module())
	if err != nil {
		t.Fatal(err)
	}
	fused, unfused, nFused := fusedPair(t, guest.Module(), stubImports(m))
	if nFused == 0 {
		t.Fatal("guest module fuses nothing")
	}
	for n := 0; n <= 4096; n++ {
		want := guest.ReferenceProduce(n)
		sum := guest.ReferenceChecksum(want)
		for _, inst := range []*wasm.Instance{fused, unfused} {
			res, err := inst.Call(guest.ExportProduce, uint64(n))
			if err != nil {
				t.Fatalf("produce(%d): %v", n, err)
			}
			ptr, size := uint32(res[0]>>32), uint32(res[0])
			got, err := inst.Memory().View(ptr, size)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("produce(%d) diverges from reference", n)
			}
			if res, err = inst.Call(guest.ExportConsume, uint64(ptr), uint64(size)); err != nil {
				t.Fatalf("consume(%d): %v", n, err)
			}
			if res[0] != sum {
				t.Fatalf("consume(%d) = %#x, want %#x", n, res[0], sum)
			}
			if _, err := inst.Call(abi.ExportDeallocate, uint64(ptr)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInlineBoundsChecksKeepTraps probes the inline fast paths of the
// loads and stores, plain and folded with their local operands, at the
// last valid address and one past it: the first succeeds, the second
// returns TrapOutOfBounds with the message the Memory accessors have
// always produced.
func TestInlineBoundsChecksKeepTraps(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	b.NewFunc("i64.load", []wasm.ValType{i32}, []wasm.ValType{i64}).LocalGet(0).I64Load(0)
	b.NewFunc("i64.load+8", []wasm.ValType{i32}, []wasm.ValType{i64}).LocalGet(0).I64Load(8)
	b.NewFunc("i64.store", []wasm.ValType{i32}, nil).LocalGet(0).I64Const(-1).I64Store(0)
	b.NewFunc("i32.store8", []wasm.ValType{i32}, nil).LocalGet(0).I32Const(0xAB).I32Store8(0)
	b.NewFunc("i64.load8_u", []wasm.ValType{i32}, []wasm.ValType{i64}).LocalGet(0).I64Load8U(0)
	b.NewFunc("i32.load8_u", []wasm.ValType{i32}, []wasm.ValType{i32}).LocalGet(0).I32Load8U(0)
	// Operand-folding forms: address and value straight from locals.
	st64 := b.NewFunc("local2.i64.store", []wasm.ValType{i32}, nil)
	st64.LocalGet(0).LocalGet(st64.AddLocal(i64)).I64Store(0)
	b.NewFunc("local2.i32.store", []wasm.ValType{i32}, nil).LocalGet(0).LocalGet(0).I32Store(0)
	b.NewFunc("local2.i32.store8", []wasm.ValType{i32}, nil).LocalGet(0).LocalGet(0).I32Store8(0)
	ld64 := b.NewFunc("local2.i64.load+8", []wasm.ValType{i32}, []wasm.ValType{i64})
	ld64.LocalGet(ld64.AddLocal(i64)).LocalGet(0).I64Load(8).I64Xor()
	fused, unfused, _ := fusedPair(t, b.Build(), nil)

	const size = wasm.PageSize
	cases := []struct {
		fn        string
		last      uint64 // highest in-bounds base address
		msgPastOf string // error text for base last+1
	}{
		{"i64.load", size - 8, "load64 at 65529 of 65536: wasm trap: out-of-bounds memory access"},
		{"i64.load+8", size - 16, "load64 at 65529 of 65536: wasm trap: out-of-bounds memory access"},
		{"i64.store", size - 8, "store64 at 65529 of 65536: wasm trap: out-of-bounds memory access"},
		{"i32.store8", size - 1, "store8 at 65536 of 65536: wasm trap: out-of-bounds memory access"},
		{"i64.load8_u", size - 1, "load8 at 65536 of 65536: wasm trap: out-of-bounds memory access"},
		{"i32.load8_u", size - 1, "load8 at 65536 of 65536: wasm trap: out-of-bounds memory access"},
		{"local2.i64.store", size - 8, "store64 at 65529 of 65536: wasm trap: out-of-bounds memory access"},
		{"local2.i32.store", size - 4, "store32 at 65533 of 65536: wasm trap: out-of-bounds memory access"},
		{"local2.i32.store8", size - 1, "store8 at 65536 of 65536: wasm trap: out-of-bounds memory access"},
		{"local2.i64.load+8", size - 16, "load64 at 65529 of 65536: wasm trap: out-of-bounds memory access"},
	}
	for _, inst := range []*wasm.Instance{fused, unfused} {
		for _, c := range cases {
			if _, err := inst.Call(c.fn, c.last); err != nil {
				t.Fatalf("%s(%d): %v", c.fn, c.last, err)
			}
			_, err := inst.Call(c.fn, c.last+1)
			if !errors.Is(err, wasm.TrapOutOfBounds) {
				t.Fatalf("%s(%d): err = %v, want TrapOutOfBounds", c.fn, c.last+1, err)
			}
			if err.Error() != c.msgPastOf {
				t.Fatalf("%s(%d): message %q, want %q", c.fn, c.last+1, err.Error(), c.msgPastOf)
			}
		}
		// The effective address is a 64-bit sum: base + offset past 4 GiB
		// traps instead of wrapping around.
		for _, fn := range []string{"i64.load+8", "local2.i64.load+8"} {
			_, err := inst.Call(fn, 0xFFFFFFFF)
			if want := "load64 at 4294967303 of 65536: wasm trap: out-of-bounds memory access"; err == nil || err.Error() != want {
				t.Fatalf("wrapping %s: err = %v, want %q", fn, err, want)
			}
		}
	}
}

// TestFusedRegionTraps: division by zero and unreachable right after a
// fused run trap exactly as the unfused body does.
func TestFusedRegionTraps(t *testing.T) {
	b := wasmbuild.New()
	b.NewFunc("div32", []wasm.ValType{i32, i32}, []wasm.ValType{i32}).
		LocalGet(0).LocalGet(1).I32DivU()
	b.NewFunc("rem32", []wasm.ValType{i32, i32}, []wasm.ValType{i32}).
		LocalGet(0).I32Const(1).I32Add().LocalGet(1).I32RemU()
	b.NewFunc("div64", []wasm.ValType{i64}, []wasm.ValType{i64}).
		LocalGet(0).I64Const(3).I64Mul().I64Const(0).Raw(0x80) // i64.div_u
	b.NewFunc("unreachable", []wasm.ValType{i32}, []wasm.ValType{i32}).
		LocalGet(0).I32Const(1).I32Add().LocalSet(0).LocalGet(0).LocalGet(0).Unreachable()
	fused, unfused, n := fusedPair(t, b.Build(), nil)
	if n == 0 {
		t.Fatal("nothing fused")
	}
	cases := []struct {
		fn   string
		args []uint64
		trap error
	}{
		{"div32", []uint64{7, 0}, wasm.TrapDivByZero},
		{"rem32", []uint64{7, 0}, wasm.TrapDivByZero},
		{"div64", []uint64{7}, wasm.TrapDivByZero},
		{"unreachable", []uint64{1}, wasm.TrapUnreachable},
	}
	for _, c := range cases {
		_, ferr := fused.Call(c.fn, c.args...)
		_, uerr := unfused.Call(c.fn, c.args...)
		if !errors.Is(ferr, c.trap) || !errorsAlike(ferr, uerr) {
			t.Fatalf("%s: fused err %v, unfused err %v, want %v", c.fn, ferr, uerr, c.trap)
		}
		if ferr.Error() != c.trap.Error() {
			t.Fatalf("%s: message %q, want %q", c.fn, ferr.Error(), c.trap.Error())
		}
	}
	if got := call1(t, fused, "div32", 7, 2); got != 3 {
		t.Fatalf("div32(7, 2) = %d", got)
	}
}

// TestHotLoopDispatches pins the dispatches per iteration of the loops the
// interpreter spends its time in, so a fuse change that un-fuses one fails
// here rather than only in a benchmark: the guest's produce and consume
// word loops (8 bytes per iteration) and BenchmarkInterpreterLoop's body.
func TestHotLoopDispatches(t *testing.T) {
	loops := func(bin []byte) map[string][]int {
		t.Helper()
		m, err := wasm.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		l, err := wasm.LoopDispatches(m)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Fusion adds no instr field: immediates a superinstruction cannot hold
	// stay in its run's dead slots.
	if wasm.InstrSize != 48 {
		t.Errorf("instr is %d bytes, want 48", wasm.InstrSize)
	}
	g, bench := loops(guest.Module()), loops(interpreterLoopModule())
	for _, c := range []struct {
		name string
		got  []int
		max  int
	}{
		{"guest produce word loop", g[guest.ExportProduce], 6},
		{"guest consume word loop", g[guest.ExportConsume], 5},
		{"BenchmarkInterpreterLoop body", bench["sum"], 5},
	} {
		if len(c.got) == 0 || c.got[0] < 1 || c.got[0] > c.max {
			t.Errorf("%s: %v dispatches per iteration (first loop), want 1..%d", c.name, c.got, c.max)
		} else {
			t.Logf("%s: %d dispatches per iteration", c.name, c.got[0])
		}
	}
}
