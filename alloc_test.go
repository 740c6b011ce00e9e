package roadrunner_test

import (
	"context"
	"errors"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/sched"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// Allocation ceilings for the data plane's steady state, pinned by
// TestAllocCeilings. The transfer fast path is the zero-alloc invariant
// (DESIGN.md §10): a warm same-node kernel transfer allocates nothing in
// the layers this repo owns. Plan submission builds a DAG, a job and its
// result set, so it has a small fixed budget instead; pool submission is a
// ring-buffer enqueue and must stay allocation-free, and so must a warm
// guest call through the Wasm interpreter. Raising any of these
// numbers is a hot-path regression and needs DESIGN.md §10 justification
// in the same change.
const (
	allocCeilingWarmTransfer = 0
	allocCeilingPlanSubmit   = 20
	allocCeilingPoolSubmit   = 0
	// A warm same-node fan-out is one shared-egress multicast pass: the
	// per-operation slices (channels, drains, refs, reports, configs), one
	// drain goroutine per target and the gift-page headers of the tee pass.
	// Its budget is per operation, not per target — the shared pass is what
	// keeps it from scaling with N payload copies.
	allocCeilingWarmFanout = 120
	// A warm guest call runs in the instance's recycled interpreter frames
	// (DESIGN.md §13): nothing is allocated per call.
	allocCeilingGuestCall = 0
)

// allocFanoutDegree sizes the fan-out ceiling probe: enough targets that a
// per-target O(N) payload-copy regression would blow the budget.
const allocFanoutDegree = 8

// allocBenchPayload keeps the ceiling measurements about per-operation
// bookkeeping, not payload size: one simulated kernel page.
const allocBenchPayload = 4 << 10

// buildWarmPair deploys two single-replica functions on one node, produces
// the source payload, and warms the kernel channel with one untimed
// transfer so the measured loop is pure steady state.
func buildWarmPair(tb testing.TB) (*roadrunner.Platform, *roadrunner.Function, *roadrunner.Function) {
	tb.Helper()
	p := roadrunner.New(roadrunner.WithNodes("node"))
	tb.Cleanup(p.Close)
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "node"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := src.Produce(allocBenchPayload); err != nil {
		tb.Fatal(err)
	}
	ref, _, err := p.Transfer(src, dst)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dst.Release(ref); err != nil {
		tb.Fatal(err)
	}
	return p, src, dst
}

// benchWarmKernelTransfer is the transfer fast path's allocation probe:
// warm channel, recycled pipeline state, pooled config — expected 0
// allocs/op.
func benchWarmKernelTransfer(b *testing.B) {
	p, src, dst := buildWarmPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _, err := p.Transfer(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// buildWarmFanout deploys one source and allocFanoutDegree single-replica
// targets on one node and warms the socketpair channels with one untimed
// shared-egress fan-out.
func buildWarmFanout(tb testing.TB) (*roadrunner.Platform, *roadrunner.Function, []*roadrunner.Function) {
	tb.Helper()
	p := roadrunner.New(roadrunner.WithNodes("node"), roadrunner.WithWorkers(4))
	tb.Cleanup(p.Close)
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "node"})
	if err != nil {
		tb.Fatal(err)
	}
	targets := make([]*roadrunner.Function, allocFanoutDegree)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: "t" + string(rune('0'+i)), Node: "node"}); err != nil {
			tb.Fatal(err)
		}
	}
	refs, _, err := p.Fanout(src, targets, allocBenchPayload)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range targets {
		if err := targets[i].Release(refs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if out, err := src.Instance(0).Output(); err == nil {
		if err := src.Instance(0).Release(out); err != nil {
			tb.Fatal(err)
		}
	}
	return p, src, targets
}

// benchWarmFanout is the shared-egress fan-out's allocation probe: warm
// socketpair channels, one multicast tee group, fixed per-operation
// bookkeeping regardless of payload.
func benchWarmFanout(b *testing.B) {
	p, src, targets := buildWarmFanout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs, _, err := p.Fanout(src, targets, allocBenchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for k := range targets {
			if err := targets[k].Release(refs[k]); err != nil {
				b.Fatal(err)
			}
		}
		out, err := src.Instance(0).Output()
		if err != nil {
			b.Fatal(err)
		}
		if err := src.Instance(0).Release(out); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlanSubmit measures one single-Xfer plan through the DAG plane:
// build, submit, wait, release. The plan plane's bookkeeping (plan, node,
// job, result set) is its fixed per-operation budget.
func benchPlanSubmit(b *testing.B) {
	p, src, dst := buildWarmPair(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := roadrunner.NewPlan()
		node := pl.Xfer(src, dst)
		job, err := p.Submit(ctx, pl)
		if err != nil {
			b.Fatal(err)
		}
		res, err := job.Wait(ctx)
		if err != nil {
			b.Fatal(err)
		}
		nr := res.Node(node)
		if nr.Err != nil {
			b.Fatal(nr.Err)
		}
		if err := dst.Release(nr.Ref()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoolSubmit measures the scheduler's submit path alone: b.N no-op
// tasks through the sharded pool, drained once outside the timed window's
// per-op accounting. Submit is a ring-buffer enqueue and must not allocate.
func benchPoolSubmit(b *testing.B) {
	pool := sched.New(2, 1024)
	defer pool.Close()
	task := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Submit(task); err != nil {
			b.Fatal(err)
		}
	}
	pool.Wait()
}

// benchWarmGuestConsume is the interpreter's allocation probe: a warm
// wasm.Func.Call of the guest consume export over a payload the guest
// produced — expected 0 allocs/op.
func benchWarmGuestConsume(b *testing.B) {
	m, err := wasm.Decode(guest.Module())
	if err != nil {
		b.Fatal(err)
	}
	// consume calls no import; every import is a stub that fails if called.
	imports := wasm.Imports{}
	for _, imp := range m.Imports {
		imports.Add(imp.Module, imp.Name, wasm.HostFunc{
			Type: m.Types[imp.TypeIndex],
			Fn: func(*wasm.HostContext, []uint64) ([]uint64, error) {
				return nil, errors.New("unexpected import call")
			},
		})
	}
	inst, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := inst.Call(guest.ExportProduce, allocBenchPayload)
	if err != nil {
		b.Fatal(err)
	}
	ptr, n := res[0]>>32, res[0]&0xFFFFFFFF
	consume, err := inst.Func(guest.ExportConsume)
	if err != nil {
		b.Fatal(err)
	}
	want := guest.ReferenceChecksum(guest.ReferenceProduce(allocBenchPayload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := consume.Call(ptr, n)
		if err != nil {
			b.Fatal(err)
		}
		if res[0] != want {
			b.Fatalf("checksum %#x, want %#x", res[0], want)
		}
	}
}

func BenchmarkAllocWarmKernelTransfer(b *testing.B) { benchWarmKernelTransfer(b) }
func BenchmarkAllocWarmFanout(b *testing.B)         { benchWarmFanout(b) }
func BenchmarkAllocPlanSubmit(b *testing.B)         { benchPlanSubmit(b) }
func BenchmarkAllocPoolSubmit(b *testing.B)         { benchPoolSubmit(b) }
func BenchmarkAllocWarmGuestConsume(b *testing.B)   { benchWarmGuestConsume(b) }

// TestAllocCeilings pins allocs/op ceilings for the hot paths and
// fails on any increase — the in-tree half of the perf gate (cmd/perfgate
// guards the throughput trajectory; this guards the allocation one).
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cases := []struct {
		name    string
		ceiling int64
		bench   func(b *testing.B)
	}{
		{"warm-kernel-transfer", allocCeilingWarmTransfer, benchWarmKernelTransfer},
		{"warm-fanout", allocCeilingWarmFanout, benchWarmFanout},
		{"plan-submit", allocCeilingPlanSubmit, benchPlanSubmit},
		{"pool-submit", allocCeilingPoolSubmit, benchPoolSubmit},
		{"warm-guest-consume", allocCeilingGuestCall, benchWarmGuestConsume},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.bench)
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs/op, ceiling %d — hot-path allocation regression (see DESIGN.md §10)",
					c.name, got, c.ceiling)
			}
		})
	}
}
