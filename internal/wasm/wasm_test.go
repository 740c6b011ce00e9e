package wasm_test

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// instantiate builds, decodes and instantiates a module, failing the test on
// any error.
func instantiate(t *testing.T, b *wasmbuild.Builder, imports wasm.Imports) *wasm.Instance {
	t.Helper()
	bin := b.Build()
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	inst, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return inst
}

func call1(t *testing.T, inst *wasm.Instance, name string, args ...uint64) uint64 {
	t.Helper()
	res, err := inst.Call(name, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	if len(res) != 1 {
		t.Fatalf("call %s: %d results", name, len(res))
	}
	return res[0]
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := wasm.Decode([]byte("\x00asm\x02\x00\x00\x00")); !errors.Is(err, wasm.ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := wasm.Decode([]byte("nope")); !errors.Is(err, wasm.ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyModule(t *testing.T) {
	b := wasmbuild.New()
	inst := instantiate(t, b, nil)
	if inst.Memory() != nil {
		t.Fatal("unexpected memory")
	}
}

func TestConstAndArithmetic(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("add3", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).LocalGet(1).I32Add().LocalGet(2).I32Add()
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "add3", 10, 20, 12); got != 42 {
		t.Fatalf("add3 = %d", got)
	}
}

func TestI64Arithmetic(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("mix", []wasm.ValType{wasm.I64, wasm.I64}, []wasm.ValType{wasm.I64})
	// (a * b) + (a ^ b)
	f.LocalGet(0).LocalGet(1).I64Mul().
		LocalGet(0).LocalGet(1).I64Xor().
		I64Add()
	inst := instantiate(t, b, nil)
	a, c := uint64(0x1234_5678_9ABC), uint64(0xFFF1)
	want := a*c + (a ^ c)
	if got := call1(t, inst, "mix", a, c); got != want {
		t.Fatalf("mix = %#x, want %#x", got, want)
	}
}

func TestSignedArithmeticEdgeCases(t *testing.T) {
	b := wasmbuild.New()
	div := b.NewFunc("div", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	div.LocalGet(0).LocalGet(1).Raw(0x6D) // i32.div_s
	rem := b.NewFunc("rem", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	rem.LocalGet(0).LocalGet(1).Raw(0x6F) // i32.rem_s
	inst := instantiate(t, b, nil)

	if got := call1(t, inst, "div", uint64(uint32(0x80000000)), uint64(uint32(2))); int32(got) != math.MinInt32/2 {
		t.Fatalf("div = %d", int32(got))
	}
	// MinInt32 % -1 == 0 (not a trap).
	if got := call1(t, inst, "rem", uint64(uint32(0x80000000)), uint64(0xFFFFFFFF)); got != 0 {
		t.Fatalf("rem = %d", got)
	}
	// Division by zero traps.
	if _, err := inst.Call("div", 1, 0); !errors.Is(err, wasm.TrapDivByZero) {
		t.Fatalf("div by zero = %v", err)
	}
	// MinInt32 / -1 overflows.
	if _, err := inst.Call("div", uint64(uint32(0x80000000)), uint64(0xFFFFFFFF)); !errors.Is(err, wasm.TrapIntegerOverflow) {
		t.Fatalf("overflow div = %v", err)
	}
}

func TestControlFlowIfElse(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("abs", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).I32Const(0).I32LtS().
		IfT(wasm.I32).
		I32Const(0).LocalGet(0).I32Sub().
		Else().
		LocalGet(0).
		End()
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "abs", uint64(uint32(0xFFFFFFF6))); got != 10 { // -10
		t.Fatalf("abs(-10) = %d", got)
	}
	if got := call1(t, inst, "abs", 7); got != 7 {
		t.Fatalf("abs(7) = %d", got)
	}
}

func TestIfWithoutElse(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("clamp", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	l := f.AddLocal(wasm.I32)
	f.LocalGet(0).LocalSet(l).
		LocalGet(l).I32Const(100).I32GtS().
		If().
		I32Const(100).LocalSet(l).
		End().
		LocalGet(l)
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "clamp", 500); got != 100 {
		t.Fatalf("clamp(500) = %d", got)
	}
	if got := call1(t, inst, "clamp", 50); got != 50 {
		t.Fatalf("clamp(50) = %d", got)
	}
}

func TestLoopSum(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("sum", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I64})
	i := f.AddLocal(wasm.I32)
	acc := f.AddLocal(wasm.I64)
	// for i := 0; i < n; i++ { acc += i }
	f.Block().
		Loop().
		LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
		LocalGet(acc).LocalGet(i).I64ExtendI32U().I64Add().LocalSet(acc).
		LocalGet(i).I32Const(1).I32Add().LocalSet(i).
		Br(0).
		End().
		End().
		LocalGet(acc)
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "sum", 100); got != 4950 {
		t.Fatalf("sum(100) = %d", got)
	}
	if got := call1(t, inst, "sum", 0); got != 0 {
		t.Fatalf("sum(0) = %d", got)
	}
}

func TestNestedBlocksAndBrTable(t *testing.T) {
	b := wasmbuild.New()
	// switch(x): 0→10, 1→20, default→30
	f := b.NewFunc("switch", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	out := f.AddLocal(wasm.I32)
	f.Block(). // depth 2 (outer)
			Block(). // depth 1
			Block(). // depth 0
			LocalGet(0).BrTable([]uint32{0, 1}, 2).
			End().
			I32Const(10).LocalSet(out).Br(1).
			End().
			I32Const(20).LocalSet(out).Br(0).
			End().
		// default arm falls out of outer block only for br 2
		LocalGet(out).I32Eqz().
		If().I32Const(30).LocalSet(out).End().
		LocalGet(out)
	inst := instantiate(t, b, nil)
	for in, want := range map[uint64]uint64{0: 10, 1: 20, 2: 30, 99: 30} {
		if got := call1(t, inst, "switch", in); got != want {
			t.Fatalf("switch(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBranchToFunctionLabel(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("early", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	// br 0 at function level acts as return.
	f.I32Const(42).LocalGet(0).BrIf(0).Drop().I32Const(7)
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "early", 1); got != 42 {
		t.Fatalf("early(1) = %d", got)
	}
	if got := call1(t, inst, "early", 0); got != 7 {
		t.Fatalf("early(0) = %d", got)
	}
}

func TestReturnAndDrop(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("ret", nil, []wasm.ValType{wasm.I32})
	f.I32Const(5).I32Const(9).Drop().Return()
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "ret"); got != 5 {
		t.Fatalf("ret = %d", got)
	}
}

func TestSelect(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("pick", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.I32Const(111).I32Const(222).LocalGet(0).Select()
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "pick", 1); got != 111 {
		t.Fatalf("pick(1) = %d", got)
	}
	if got := call1(t, inst, "pick", 0); got != 222 {
		t.Fatalf("pick(0) = %d", got)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	st := b.NewFunc("store", []wasm.ValType{wasm.I32, wasm.I64}, nil)
	st.LocalGet(0).LocalGet(1).I64Store(0)
	ld := b.NewFunc("load", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I64})
	ld.LocalGet(0).I64Load(0)
	ld8 := b.NewFunc("load8", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	ld8.LocalGet(0).I32Load8U(0)
	inst := instantiate(t, b, nil)

	if _, err := inst.Call("store", 1000, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if got := call1(t, inst, "load", 1000); got != 0x1122334455667788 {
		t.Fatalf("load = %#x", got)
	}
	// Little-endian byte order observable through byte loads.
	if got := call1(t, inst, "load8", 1000); got != 0x88 {
		t.Fatalf("load8 = %#x", got)
	}
	if got := call1(t, inst, "load8", 1007); got != 0x11 {
		t.Fatalf("load8 high = %#x", got)
	}
}

func TestMemoryOutOfBoundsTraps(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	ld := b.NewFunc("load", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I64})
	ld.LocalGet(0).I64Load(0)
	inst := instantiate(t, b, nil)
	if _, err := inst.Call("load", 65536-7); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("straddling load = %v", err)
	}
	if _, err := inst.Call("load", 0xFFFFFFFF); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("huge address = %v", err)
	}
	// After a trap the instance must remain usable (§7: failures are
	// contained).
	if got := call1(t, inst, "load", 0); got != 0 {
		t.Fatalf("post-trap load = %d", got)
	}
}

func TestMemoryGrowAndSize(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 3, "memory")
	grow := b.NewFunc("grow", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	grow.LocalGet(0).MemoryGrow()
	size := b.NewFunc("size", nil, []wasm.ValType{wasm.I32})
	size.MemorySize()
	inst := instantiate(t, b, nil)

	if got := call1(t, inst, "size"); got != 1 {
		t.Fatalf("size = %d", got)
	}
	if got := call1(t, inst, "grow", 2); got != 1 {
		t.Fatalf("grow = %d (want previous size 1)", got)
	}
	if got := call1(t, inst, "size"); got != 3 {
		t.Fatalf("size after grow = %d", got)
	}
	// Growing past max fails with -1.
	if got := call1(t, inst, "grow", 1); int32(got) != -1 {
		t.Fatalf("over-grow = %d", int32(got))
	}
}

func TestMemoryGrowHookObservesAllocation(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 4, "memory")
	grow := b.NewFunc("grow", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	grow.LocalGet(0).MemoryGrow()
	bin := b.Build()
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	inst, err := wasm.Instantiate(m, nil, &wasm.Config{MemoryResizeHook: func(d int64) { total += d }})
	if err != nil {
		t.Fatal(err)
	}
	if total != wasm.PageSize {
		t.Fatalf("initial allocation = %d", total)
	}
	if _, err := inst.Call("grow", 2); err != nil {
		t.Fatal(err)
	}
	if total != 3*wasm.PageSize {
		t.Fatalf("after grow = %d", total)
	}
}

func TestMemoryCopyFill(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	fill := b.NewFunc("fill", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}, nil)
	fill.LocalGet(0).LocalGet(1).LocalGet(2).MemoryFill()
	cp := b.NewFunc("copy", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}, nil)
	cp.LocalGet(0).LocalGet(1).LocalGet(2).MemoryCopy()
	inst := instantiate(t, b, nil)

	if _, err := inst.Call("fill", 10, 0xAB, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("copy", 100, 10, 20); err != nil {
		t.Fatal(err)
	}
	mem := inst.Memory()
	view, err := mem.View(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range view {
		if v != 0xAB {
			t.Fatalf("copy[%d] = %#x", i, v)
		}
	}
	// Overlapping copy must behave like memmove.
	if _, err := inst.Call("copy", 101, 100, 19); err != nil {
		t.Fatal(err)
	}
	view2, _ := mem.View(101, 19)
	for i, v := range view2 {
		if v != 0xAB {
			t.Fatalf("overlap copy[%d] = %#x", i, v)
		}
	}
	// OOB bulk ops trap.
	if _, err := inst.Call("fill", 65530, 1, 100); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("oob fill = %v", err)
	}
}

func TestDataSegments(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	b.Data(32, []byte("hello, wasm"))
	ld := b.NewFunc("load8", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	ld.LocalGet(0).I32Load8U(0)
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "load8", 32); got != 'h' {
		t.Fatalf("data[0] = %c", rune(got))
	}
	view, err := inst.Memory().View(32, 11)
	if err != nil {
		t.Fatal(err)
	}
	if string(view) != "hello, wasm" {
		t.Fatalf("view = %q", view)
	}
}

func TestDataSegmentOutOfRange(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	b.Data(wasm.PageSize-4, []byte("too long"))
	bin := b.Build()
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wasm.Instantiate(m, nil, nil); !errors.Is(err, wasm.ErrDataOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestGlobals(t *testing.T) {
	b := wasmbuild.New()
	g := b.Global("counter", wasm.I64, true, 100)
	bump := b.NewFunc("bump", nil, []wasm.ValType{wasm.I64})
	bump.GlobalGet(g).I64Const(1).I64Add().GlobalSet(g).GlobalGet(g)
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "bump"); got != 101 {
		t.Fatalf("bump = %d", got)
	}
	if got := call1(t, inst, "bump"); got != 102 {
		t.Fatalf("bump 2 = %d", got)
	}
	v, err := inst.GlobalValue("counter")
	if err != nil || v != 102 {
		t.Fatalf("GlobalValue = %d, %v", v, err)
	}
}

func TestImmutableGlobalAssignmentFails(t *testing.T) {
	b := wasmbuild.New()
	g := b.Global("", wasm.I32, false, 5)
	f := b.NewFunc("set", nil, nil)
	f.I32Const(9).GlobalSet(g)
	// The static validator rejects the module at decode time.
	if _, err := wasm.Decode(b.Build()); !errors.Is(err, wasm.ErrInvalidModule) {
		t.Fatalf("decode err = %v, want ErrInvalidModule", err)
	}
}

func TestFunctionCalls(t *testing.T) {
	b := wasmbuild.New()
	double := b.NewFunc("", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	double.LocalGet(0).I32Const(2).I32Mul()
	quad := b.NewFunc("quad", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	quad.LocalGet(0).Call(double.Ref()).Call(double.Ref())
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "quad", 5); got != 20 {
		t.Fatalf("quad = %d", got)
	}
}

func TestRecursionAndCallDepth(t *testing.T) {
	b := wasmbuild.New()
	fib := b.NewFunc("fib", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	fib.LocalGet(0).I32Const(2).I32LtU().
		IfT(wasm.I32).
		LocalGet(0).
		Else().
		LocalGet(0).I32Const(1).I32Sub().Call(fib.Ref()).
		LocalGet(0).I32Const(2).I32Sub().Call(fib.Ref()).
		I32Add().
		End()
	inf := b.NewFunc("inf", nil, nil)
	inf.Call(inf.Ref())
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "fib", 15); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
	if _, err := inst.Call("inf"); !errors.Is(err, wasm.TrapCallDepth) {
		t.Fatalf("infinite recursion = %v", err)
	}
}

func TestCallIndirect(t *testing.T) {
	b := wasmbuild.New()
	add := b.NewFunc("", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	add.LocalGet(0).LocalGet(1).I32Add()
	sub := b.NewFunc("", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	sub.LocalGet(0).LocalGet(1).I32Sub()
	bad := b.NewFunc("", nil, nil) // wrong signature for slot 2
	bad.Nop()
	b.Table(add.Ref(), sub.Ref(), bad.Ref())
	disp := b.NewFunc("dispatch", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	disp.LocalGet(1).LocalGet(2).LocalGet(0).
		CallIndirect([]wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	inst := instantiate(t, b, nil)

	if got := call1(t, inst, "dispatch", 0, 30, 12); got != 42 {
		t.Fatalf("dispatch add = %d", got)
	}
	if got := call1(t, inst, "dispatch", 1, 50, 8); got != 42 {
		t.Fatalf("dispatch sub = %d", got)
	}
	if _, err := inst.Call("dispatch", 2, 0, 0); !errors.Is(err, wasm.TrapIndirectType) {
		t.Fatalf("type mismatch = %v", err)
	}
	if _, err := inst.Call("dispatch", 99, 0, 0); !errors.Is(err, wasm.TrapUndefinedElement) {
		t.Fatalf("oob element = %v", err)
	}
}

func TestHostFunctionImport(t *testing.T) {
	b := wasmbuild.New()
	hostAdd := b.ImportFunc("env", "host_add", []wasm.ValType{wasm.I64, wasm.I64}, []wasm.ValType{wasm.I64})
	b.Memory(1, 1, "memory")
	f := b.NewFunc("go", []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64})
	f.LocalGet(0).I64Const(100).Call(hostAdd)

	calls := 0
	imports := wasm.Imports{}
	imports.Add("env", "host_add", wasm.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}},
		Fn: func(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
			calls++
			if ctx.Memory() == nil {
				t.Error("host function cannot see linear memory")
			}
			return []uint64{args[0] + args[1]}, nil
		},
	})
	inst := instantiate(t, b, imports)
	if got := call1(t, inst, "go", 42); got != 142 {
		t.Fatalf("go = %d", got)
	}
	if calls != 1 {
		t.Fatalf("host calls = %d", calls)
	}
}

func TestMissingImportFails(t *testing.T) {
	b := wasmbuild.New()
	b.ImportFunc("env", "nope", nil, nil)
	f := b.NewFunc("f", nil, nil)
	f.Nop()
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wasm.Instantiate(m, wasm.Imports{}, nil); !errors.Is(err, wasm.ErrImportMissing) {
		t.Fatalf("err = %v", err)
	}
}

func TestImportSignatureMismatch(t *testing.T) {
	b := wasmbuild.New()
	b.ImportFunc("env", "f", []wasm.ValType{wasm.I32}, nil)
	imports := wasm.Imports{}
	imports.Add("env", "f", wasm.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValType{wasm.I64}},
		Fn:   func(*wasm.HostContext, []uint64) ([]uint64, error) { return nil, nil },
	})
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wasm.Instantiate(m, imports, nil); !errors.Is(err, wasm.ErrImportType) {
		t.Fatalf("err = %v", err)
	}
}

func TestStartFunctionRuns(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	g := b.Global("ran", wasm.I32, true, 0)
	start := b.NewFunc("", nil, nil)
	start.I32Const(1).GlobalSet(g)
	b.Start(start.Ref())
	inst := instantiate(t, b, nil)
	if v, _ := inst.GlobalValue("ran"); v != 1 {
		t.Fatal("start function did not run")
	}
}

func TestUnreachableTraps(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("boom", nil, nil)
	f.Unreachable()
	inst := instantiate(t, b, nil)
	if _, err := inst.Call("boom"); !errors.Is(err, wasm.TrapUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if !wasm.IsTrap(errTrapOf(inst)) {
		t.Fatal("IsTrap failed to classify")
	}
}

func errTrapOf(inst *wasm.Instance) error {
	_, err := inst.Call("boom")
	return err
}

func TestNoSuchExport(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("f", nil, nil)
	f.Nop()
	inst := instantiate(t, b, nil)
	if _, err := inst.Call("missing"); !errors.Is(err, wasm.ErrNoSuchExport) {
		t.Fatalf("err = %v", err)
	}
	if _, err := inst.Call("f", 1, 2); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestFloatOps(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("hyp", []wasm.ValType{wasm.F64, wasm.F64}, []wasm.ValType{wasm.F64})
	f.LocalGet(0).LocalGet(0).F64Mul().
		LocalGet(1).LocalGet(1).F64Mul().
		F64Add().Raw(0x9F) // f64.sqrt
	inst := instantiate(t, b, nil)
	got := math.Float64frombits(call1(t, inst, "hyp", math.Float64bits(3), math.Float64bits(4)))
	if got != 5 {
		t.Fatalf("hyp(3,4) = %v", got)
	}
}

func TestFloatTruncationTraps(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("trunc", []wasm.ValType{wasm.F64}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).Raw(0xAA) // i32.trunc_f64_s
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "trunc", math.Float64bits(-3.99)); int32(got) != -3 {
		t.Fatalf("trunc(-3.99) = %d", int32(got))
	}
	if _, err := inst.Call("trunc", math.Float64bits(math.NaN())); !errors.Is(err, wasm.TrapInvalidConv) {
		t.Fatalf("trunc(NaN) = %v", err)
	}
	if _, err := inst.Call("trunc", math.Float64bits(3e9)); !errors.Is(err, wasm.TrapIntegerOverflow) {
		t.Fatalf("trunc(3e9) = %v", err)
	}
}

func TestSignExtensionOps(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("ext8", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).Raw(0xC0) // i32.extend8_s
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "ext8", 0x80); uint32(got) != 0xFFFFFF80 {
		t.Fatalf("ext8 = %#x", uint32(got))
	}
}

func TestMemoryViewBounds(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	f := b.NewFunc("f", nil, nil)
	f.Nop()
	inst := instantiate(t, b, nil)
	mem := inst.Memory()
	if _, err := mem.View(wasm.PageSize-1, 2); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("view OOB = %v", err)
	}
	if err := mem.WriteAt([]byte("abc"), wasm.PageSize-2); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("write OOB = %v", err)
	}
	if err := mem.ReadAt(make([]byte, 4), wasm.PageSize-2); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("read OOB = %v", err)
	}
	if err := mem.WriteAt([]byte("abc"), 10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := mem.ReadAt(got, 10); err != nil || string(got) != "abc" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// Property: interpreter i32/i64 arithmetic agrees with Go's for arbitrary
// inputs across a representative operation set.
func TestArithmeticAgreesWithGoProperty(t *testing.T) {
	b := wasmbuild.New()
	ops := []struct {
		name string
		emit func(f *wasmbuild.FuncBuilder)
		ref  func(a, b uint64) uint64
	}{
		{"add", func(f *wasmbuild.FuncBuilder) { f.I64Add() }, func(a, b uint64) uint64 { return a + b }},
		{"sub", func(f *wasmbuild.FuncBuilder) { f.I64Sub() }, func(a, b uint64) uint64 { return a - b }},
		{"mul", func(f *wasmbuild.FuncBuilder) { f.I64Mul() }, func(a, b uint64) uint64 { return a * b }},
		{"and", func(f *wasmbuild.FuncBuilder) { f.I64And() }, func(a, b uint64) uint64 { return a & b }},
		{"or", func(f *wasmbuild.FuncBuilder) { f.I64Or() }, func(a, b uint64) uint64 { return a | b }},
		{"xor", func(f *wasmbuild.FuncBuilder) { f.I64Xor() }, func(a, b uint64) uint64 { return a ^ b }},
		{"shl", func(f *wasmbuild.FuncBuilder) { f.I64Shl() }, func(a, b uint64) uint64 { return a << (b & 63) }},
		{"shr", func(f *wasmbuild.FuncBuilder) { f.I64ShrU() }, func(a, b uint64) uint64 { return a >> (b & 63) }},
	}
	for _, op := range ops {
		f := b.NewFunc(op.name, []wasm.ValType{wasm.I64, wasm.I64}, []wasm.ValType{wasm.I64})
		f.LocalGet(0).LocalGet(1)
		op.emit(f)
	}
	inst := instantiate(t, b, nil)
	for _, op := range ops {
		fn, err := inst.Func(op.name)
		if err != nil {
			t.Fatal(err)
		}
		check := func(a, b uint64) bool {
			res, err := fn.Call(a, b)
			return err == nil && len(res) == 1 && res[0] == op.ref(a, b)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s disagrees with Go: %v", op.name, err)
		}
	}
}

// Property: round-trip through linear memory is the identity for any payload.
func TestMemoryRoundTripProperty(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(4, 4, "memory")
	f := b.NewFunc("f", nil, nil)
	f.Nop()
	inst := instantiate(t, b, nil)
	mem := inst.Memory()
	check := func(data []byte, at uint16) bool {
		if len(data) == 0 {
			return true
		}
		ptr := uint32(at)
		if err := mem.WriteAt(data, ptr); err != nil {
			return true // OOB writes must fail cleanly, not corrupt
		}
		view, err := mem.View(ptr, uint32(len(data)))
		if err != nil {
			return false
		}
		for i := range data {
			if view[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExportsListing(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	f := b.NewFunc("foo", nil, nil)
	f.Nop()
	inst := instantiate(t, b, nil)
	exports := inst.Exports()
	names := map[string]bool{}
	for _, e := range exports {
		names[e.Name] = true
	}
	if !names["foo"] || !names["memory"] {
		t.Fatalf("exports = %v", names)
	}
}

// interpreterLoopModule exports sum(n), a counted i64 sum over 0..n-1: the
// loop BenchmarkInterpreterLoop times and TestHotLoopDispatches pins.
func interpreterLoopModule() []byte {
	bld := wasmbuild.New()
	f := bld.NewFunc("sum", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I64})
	i := f.AddLocal(wasm.I32)
	acc := f.AddLocal(wasm.I64)
	f.Block().Loop().
		LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
		LocalGet(acc).LocalGet(i).I64ExtendI32U().I64Add().LocalSet(acc).
		LocalGet(i).I32Const(1).I32Add().LocalSet(i).
		Br(0).End().End().
		LocalGet(acc)
	return bld.Build()
}

func BenchmarkInterpreterLoop(b *testing.B) {
	m, err := wasm.Decode(interpreterLoopModule())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := wasm.Instantiate(m, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	fn, err := inst.Func("sum")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := fn.Call(10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstantiate(b *testing.B) {
	bld := wasmbuild.New()
	bld.Memory(16, 64, "memory")
	for i := 0; i < 20; i++ {
		f := bld.NewFunc("", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
		f.LocalGet(0).I32Const(int32(i)).I32Add()
	}
	f := bld.NewFunc("main", nil, nil)
	f.Nop()
	bin := bld.Build()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m, err := wasm.Decode(bin)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wasm.Instantiate(m, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
