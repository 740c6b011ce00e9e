// Public-API tests for the staged data-plane pipeline: streaming chains,
// per-target multicast link modeling, and the pool-parallel fan-out.
package roadrunner_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// TestChainPhaseLockedAblation: the two regimes deliver identical payloads
// and identical syscall/copy accounting; only the overlap attribution (and
// therefore the critical-path latency) differs.
func TestChainPhaseLockedAblation(t *testing.T) {
	build := func() (*roadrunner.Platform, []*roadrunner.Function) {
		p := newPlatform(t, roadrunner.WithDataHoseSize(64<<10))
		fns := make([]*roadrunner.Function, 4)
		for i := range fns {
			node := "edge"
			if i%2 == 1 {
				node = "cloud"
			}
			fns[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: node})
		}
		return p, fns
	}
	const n = 256 << 10
	run := func(opts []roadrunner.TransferOption) roadrunner.Report {
		p, fns := build()
		ref, rep, err := p.ChainWith(n, opts, fns...)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := fns[len(fns)-1].Checksum(ref)
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("chain corrupted: %v", err)
		}
		return rep
	}
	pipelined := run(nil)
	locked := run([]roadrunner.TransferOption{roadrunner.WithPhaseLocked(true)})

	if pipelined.Usage.Syscalls != locked.Usage.Syscalls {
		t.Fatalf("syscalls: pipelined %d != phase-locked %d", pipelined.Usage.Syscalls, locked.Usage.Syscalls)
	}
	if pipelined.Usage.TotalCopyBytes() != locked.Usage.TotalCopyBytes() {
		t.Fatalf("copies: pipelined %d != phase-locked %d",
			pipelined.Usage.TotalCopyBytes(), locked.Usage.TotalCopyBytes())
	}
	if locked.Breakdown.Overlap != 0 {
		t.Fatalf("phase-locked chain reported overlap %v", locked.Breakdown.Overlap)
	}
	if pipelined.Breakdown.Overlap <= 0 {
		t.Fatal("pipelined multi-chunk chain reported no overlap")
	}
	if pipelined.Latency() >= locked.Latency() {
		t.Fatalf("pipelined critical path %v not below phase-locked %v", pipelined.Latency(), locked.Latency())
	}
}

// TestConcurrentSharedInteriorChainsPublic drives several streaming chains
// through one shared interior function concurrently (the public-API face of
// the core-level stress test) and verifies every delivery.
func TestConcurrentSharedInteriorChainsPublic(t *testing.T) {
	p := newPlatform(t)
	interior := deploy(t, p, roadrunner.FunctionSpec{Name: "hub", Node: "edge"})
	const chains, rounds = 4, 3
	heads := make([]*roadrunner.Function, chains)
	tails := make([]*roadrunner.Function, chains)
	for i := 0; i < chains; i++ {
		heads[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("h%d", i), Node: "edge"})
		tails[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < chains; i++ {
			i := i
			n := 32<<10 + 512*i // per-chain payload, checksum-distinguishable
			wg.Add(1)
			go func() {
				defer wg.Done()
				ref, _, err := p.Chain(n, heads[i], interior, tails[i])
				if err != nil {
					t.Errorf("chain %d: %v", i, err)
					return
				}
				sum, err := tails[i].Checksum(ref)
				if err != nil {
					t.Errorf("chain %d checksum: %v", i, err)
					return
				}
				if want := roadrunner.ExpectedChecksum(n); sum != want {
					t.Errorf("chain %d: checksum %#x, want %#x", i, sum, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestMulticastPerTargetLinks is the mixed-link regression test: each
// multicast target's wire time must be modeled on ITS link, not the first
// remote target's (the pre-fix behavior charged every target the first
// link, inflating fast targets behind any slow sibling and vice versa).
func TestMulticastPerTargetLinks(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "fast", "slow"))
	p.SetLink("edge", "fast", 1000*roadrunner.Mbps, 0)
	p.SetLink("edge", "slow", 10*roadrunner.Mbps, 0)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	tFast := deploy(t, p, roadrunner.FunctionSpec{Name: "tf", Node: "fast"})
	tSlow := deploy(t, p, roadrunner.FunctionSpec{Name: "ts", Node: "slow"})

	const n = 1_000_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	refs, reports, err := p.Multicast(src, []*roadrunner.Function{tFast, tSlow})
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range []*roadrunner.Function{tFast, tSlow} {
		sum, err := dst.Checksum(refs[i])
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("target %d corrupted: %v", i, err)
		}
	}
	// 1 MB over a dedicated link: 8 ms at 1000 Mbps, 800 ms at 10 Mbps —
	// each target charged its own link with one flow on it.
	wantFast, wantSlow := 8*time.Millisecond, 800*time.Millisecond
	if got := reports[0].Breakdown.Network; got < wantFast*9/10 || got > wantFast*11/10 {
		t.Fatalf("fast target network = %v, want ~%v", got, wantFast)
	}
	if got := reports[1].Breakdown.Network; got < wantSlow*9/10 || got > wantSlow*11/10 {
		t.Fatalf("slow target network = %v, want ~%v", got, wantSlow)
	}

	// WithFlows overrides the per-link sharing degree (previously silently
	// ignored): doubling the flow count doubles each link's transmit time.
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, reports2, err := p.Multicast(src, []*roadrunner.Function{tFast, tSlow}, roadrunner.WithFlows(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports2 {
		if got, base := reports2[i].Breakdown.Network, reports[i].Breakdown.Network; got < base*19/10 || got > base*21/10 {
			t.Fatalf("target %d with 2 flows: network %v, want ~2x %v", i, got, base)
		}
	}
}

// TestMulticastSharedLinkSplitsFlows: targets reached over the SAME link
// share its bandwidth (default flow count = targets per link).
func TestMulticastSharedLinkSplitsFlows(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "cloud"), roadrunner.WithLink(100*roadrunner.Mbps, 0))
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, 2)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	const n = 1_000_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, reports, err := p.Multicast(src, targets)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB at 100 Mbps is 80 ms; two flows sharing the link halve the
	// per-flow bandwidth: 160 ms each.
	want := 160 * time.Millisecond
	for i, rep := range reports {
		if got := rep.Breakdown.Network; got < want*9/10 || got > want*11/10 {
			t.Fatalf("target %d network = %v, want ~%v", i, got, want)
		}
	}
}

// TestMulticastRejectsForcedMode: multicast is network-path only; forcing a
// mechanism must fail loudly instead of being silently ignored.
func TestMulticastRejectsForcedMode(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	dst := deploy(t, p, roadrunner.FunctionSpec{Name: "dst", Node: "cloud"})
	if err := src.Produce(1 << 10); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []roadrunner.Mode{roadrunner.ModeUserSpace, roadrunner.ModeKernelSpace} {
		if _, _, err := p.Multicast(src, []*roadrunner.Function{dst}, roadrunner.WithMode(mode)); !errors.Is(err, roadrunner.ErrModeUnavailable) {
			t.Fatalf("forced %v multicast = %v, want ErrModeUnavailable", mode, err)
		}
	}
	// ModeNetwork and ModeAuto are both fine.
	if _, _, err := p.Multicast(src, []*roadrunner.Function{dst}, roadrunner.WithMode(roadrunner.ModeNetwork)); err != nil {
		t.Fatalf("explicit network multicast: %v", err)
	}
}

// TestFanoutRunsOnWorkerPool: Fanout routes its deliveries through the
// platform's bounded pool (sharing the single produced payload), keeps
// report order, and still models link sharing across the fan-out.
func TestFanoutRunsOnWorkerPool(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, 6)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	before := p.SchedulerStats().Submitted
	const n = 64 << 10
	_, reports, err := p.Fanout(src, targets, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(targets) {
		t.Fatalf("reports = %d, want %d", len(reports), len(targets))
	}
	for i, rep := range reports {
		if rep.Mode != "network" {
			t.Fatalf("report %d mode = %q", i, rep.Mode)
		}
		if rep.Bytes != n {
			t.Fatalf("report %d bytes = %d", i, rep.Bytes)
		}
	}
	if got := p.SchedulerStats().Submitted - before; got != int64(len(targets)) {
		t.Fatalf("fanout submitted %d pool tasks, want %d", got, len(targets))
	}
}

// TestFanoutParallelThroughput asserts the aggregate-throughput win of the
// pool-parallel fan-out over a strictly sequential delivery loop of the
// same population. Both arms time the same work — delivering one payload
// the source produced before either timer started — so the guest's
// produce cost cannot tip the comparison: the parallel arm is the
// delivery half of Fanout (one Plan Xfer per target, pinned to the
// produced region, run across the worker pool), the sequential arm one
// Transfer per target. The win requires real parallelism, so the
// wall-clock assertion only runs with 2+ scheduler threads, and it
// compares medians over repeated rounds; the structural properties are
// asserted unconditionally above.
func TestFanoutParallelThroughput(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("aggregate-throughput comparison needs 2+ CPUs")
	}
	const degree, n, rounds = 8, 512 << 10, 5
	ctx := context.Background()
	build := func() (*roadrunner.Platform, *roadrunner.Function, []*roadrunner.Function) {
		p := newPlatform(t)
		src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		targets := make([]*roadrunner.Function, degree)
		for i := range targets {
			targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
		}
		// Prime channels so both measurements are warm.
		refs, _, err := p.Fanout(src, targets, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, dst := range targets {
			if err := dst.Release(refs[i]); err != nil {
				t.Fatal(err)
			}
		}
		// The payload both arms deliver, produced outside every timer.
		if err := src.Produce(n); err != nil {
			t.Fatal(err)
		}
		return p, src, targets
	}

	p1, src1, targets1 := build()
	si := src1.Instance(0)
	out, err := si.Output()
	if err != nil {
		t.Fatal(err)
	}
	fanout := func() time.Duration {
		pl := roadrunner.NewPlan()
		nodes := make([]*roadrunner.PlanNode, degree)
		for i, dst := range targets1 {
			nodes[i] = pl.Xfer(src1, dst, roadrunner.WithSourceInstance(si),
				roadrunner.WithSourceRef(out), roadrunner.WithFlows(degree))
		}
		start := time.Now()
		job, err := p1.Submit(ctx, pl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(ctx)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		for i, node := range nodes {
			nr := res.Node(node)
			if nr.Err != nil {
				t.Fatal(nr.Err)
			}
			if err := targets1[i].Release(nr.Ref()); err != nil {
				t.Fatal(err)
			}
		}
		return elapsed
	}

	p2, src2, targets2 := build()
	loop := func() time.Duration {
		refs := make([]roadrunner.DataRef, degree)
		start := time.Now()
		for i, dst := range targets2 {
			ref, _, err := p2.Transfer(src2, dst, roadrunner.WithFlows(degree))
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
		elapsed := time.Since(start)
		for i, dst := range targets2 {
			if err := dst.Release(refs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return elapsed
	}

	par := make([]time.Duration, rounds)
	seq := make([]time.Duration, rounds)
	for r := range rounds {
		par[r], seq[r] = fanout(), loop()
	}
	median := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	parallel, sequential := median(par), median(seq)
	t.Logf("parallel fanout %v, sequential %v (medians of %d rounds)", parallel, sequential, rounds)

	// Generous margin: the parallel fan-out must beat the sequential loop
	// by at least 10% in aggregate throughput.
	if float64(parallel) > 0.9*float64(sequential) {
		t.Fatalf("parallel fanout %v vs sequential %v (medians of %d): no aggregate-throughput win", parallel, sequential, rounds)
	}
}
