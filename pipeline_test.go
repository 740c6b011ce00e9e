// Public-API tests for the staged data-plane pipeline: streaming chains,
// per-target multicast link modeling, and the pool-parallel fan-out.
package roadrunner_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// TestChainPipelinedOverlap: a 3-hop chain over multi-chunk payloads
// delivers checksum-clean, reports a positive overlap credit, and so
// reports a critical-path latency below the sum of its sequential laps.
func TestChainPipelinedOverlap(t *testing.T) {
	p := newPlatform(t, roadrunner.WithDataHoseSize(64<<10))
	fns := make([]*roadrunner.Function, 4)
	for i := range fns {
		node := "edge"
		if i%2 == 1 {
			node = "cloud"
		}
		fns[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: node})
	}
	const n = 256 << 10
	ref, rep, err := p.Chain(n, fns...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := fns[len(fns)-1].Checksum(ref)
	if err != nil || sum != roadrunner.ExpectedChecksum(n) {
		t.Fatalf("chain corrupted: %v", err)
	}
	bd := rep.Breakdown
	if bd.Overlap <= 0 {
		t.Fatal("multi-chunk chain reported no overlap")
	}
	if laps := bd.Setup + bd.Transfer + bd.WasmIO + bd.Network; rep.Latency() >= laps {
		t.Fatalf("critical path %v not below summed laps %v", rep.Latency(), laps)
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

// TestFanoutParallelThroughput pins the structure of the pool-parallel
// fan-out the fanoutpar experiment times: both arms deliver one payload the
// source produced up front — the parallel arm as one Plan Xfer per target
// pinned to the produced region, the sequential arm as one Transfer per
// target — every delivery is checksum-clean, and the Plan submits exactly
// one pool task per target. The wall-clock comparison itself lives in
// internal/experiments (FanoutPar), which reports it against its bound.
func TestFanoutParallelThroughput(t *testing.T) {
	const degree, n = 8, 512 << 10
	ctx := context.Background()
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, degree)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	verify := func(arm string, i int, ref roadrunner.DataRef) {
		t.Helper()
		sum, err := targets[i].Checksum(ref)
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("%s target %d corrupted: %v", arm, i, err)
		}
		if err := targets[i].Release(ref); err != nil {
			t.Fatal(err)
		}
	}

	si := src.Instance(0)
	out, err := si.Output()
	if err != nil {
		t.Fatal(err)
	}
	pl := roadrunner.NewPlan()
	nodes := make([]*roadrunner.PlanNode, degree)
	for i, dst := range targets {
		nodes[i] = pl.Xfer(src, dst, roadrunner.WithSourceInstance(si),
			roadrunner.WithSourceRef(out), roadrunner.WithFlows(degree))
	}
	before := p.SchedulerStats().Submitted
	job, err := p.Submit(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SchedulerStats().Submitted - before; got != degree {
		t.Fatalf("plan submitted %d pool tasks, want %d", got, degree)
	}
	for i, node := range nodes {
		nr := res.Node(node)
		if nr.Err != nil {
			t.Fatal(nr.Err)
		}
		verify("parallel", i, nr.Ref())
	}

	for i, dst := range targets {
		ref, _, err := p.Transfer(src, dst, roadrunner.WithFlows(degree))
		if err != nil {
			t.Fatal(err)
		}
		verify("sequential", i, ref)
	}
}
