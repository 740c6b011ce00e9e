package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// System labels for the fanoutpar experiment.
const (
	SysPoolFanout     = "Pool-parallel fan-out (Plan Xfers)"
	SysSequentialLoop = "Sequential Transfer loop"
)

// Fan-out parallelism axes: 8 cross-node targets of one 512 KiB payload,
// timed over 5 rounds per arm.
const (
	fanoutParDegree = 8
	fanoutParBytes  = 512 << 10
	fanoutParRounds = 5
)

// fanoutParBound is the acceptance ratio: the pool-parallel arm's median
// wall clock must be at most this share of the sequential arm's (a ≥10%
// aggregate-throughput win).
const fanoutParBound = 0.9

// FanoutPar measures the aggregate-throughput win of the pool-parallel
// fan-out over a strictly sequential delivery loop of the same population
// (not a paper figure). Both arms time the same work — delivering one
// payload the source produced before either timer started — so the
// guest's produce cost cannot tip the comparison: the parallel arm is the
// delivery half of Fanout (one Plan Xfer per target, pinned to the
// produced region, run across the worker pool), the sequential arm one
// Transfer per target. Rounds alternate the arms and each arm reports its
// median. The win needs real parallelism, so the run records GOMAXPROCS
// and whether the bound was met instead of failing below it.
func FanoutPar(Options) (*Result, error) {
	res := &Result{
		ID:     "fanoutpar",
		Mode:   "fanout-parallel",
		Title:  fmt.Sprintf("Pool-parallel fan-out vs sequential loop, %d KiB payload", fanoutParBytes>>10),
		XLabel: "targets",
	}
	par, err := newFanoutParArm()
	if err != nil {
		return nil, err
	}
	defer par.p.Close()
	seq, err := newFanoutParArm()
	if err != nil {
		return nil, err
	}
	defer seq.p.Close()

	parWall := make([]time.Duration, fanoutParRounds)
	seqWall := make([]time.Duration, fanoutParRounds)
	for r := range fanoutParRounds {
		if parWall[r], err = par.planRound(); err != nil {
			return nil, fmt.Errorf("parallel round %d: %w", r, err)
		}
		if seqWall[r], err = seq.loopRound(); err != nil {
			return nil, fmt.Errorf("sequential round %d: %w", r, err)
		}
	}
	parallel, sequential := medianDuration(parWall), medianDuration(seqWall)
	for _, arm := range []struct {
		system string
		wall   time.Duration
	}{{SysPoolFanout, parallel}, {SysSequentialLoop, sequential}} {
		res.Points = append(res.Points, Point{
			System:  arm.system,
			X:       fanoutParDegree,
			Latency: arm.wall,
			RPS:     fanoutParDegree * float64(time.Second) / float64(arm.wall),
		})
	}
	ratio := float64(parallel) / float64(sequential)
	met := "no"
	if ratio <= fanoutParBound {
		met = "yes"
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"parallel %v vs sequential %v (medians of %d rounds): ratio %.2f, bound <= %.2f met: %s at GOMAXPROCS=%d",
		parallel, sequential, fanoutParRounds, ratio, fanoutParBound, met, runtime.GOMAXPROCS(0)))
	return res, nil
}

// fanoutParArm is one arm's warm deployment: a source on "edge" holding the
// produced payload and fanoutParDegree targets on "cloud".
type fanoutParArm struct {
	p       *roadrunner.Platform
	src     *roadrunner.Function
	targets []*roadrunner.Function
}

// newFanoutParArm deploys an arm, primes every channel with an untimed
// fan-out, and produces the payload both arms deliver outside every timer.
func newFanoutParArm() (*fanoutParArm, error) {
	a := &fanoutParArm{p: roadrunner.New()}
	fail := func(err error) (*fanoutParArm, error) {
		a.p.Close()
		return nil, err
	}
	var err error
	if a.src, err = a.p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"}); err != nil {
		return fail(err)
	}
	a.targets = make([]*roadrunner.Function, fanoutParDegree)
	for i := range a.targets {
		if a.targets[i], err = a.p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"}); err != nil {
			return fail(err)
		}
	}
	refs, _, err := a.p.Fanout(a.src, a.targets, fanoutParBytes)
	if err != nil {
		return fail(err)
	}
	for i, dst := range a.targets {
		if err := dst.Release(refs[i]); err != nil {
			return fail(err)
		}
	}
	if err := a.src.Produce(fanoutParBytes); err != nil {
		return fail(err)
	}
	return a, nil
}

// planRound times one Plan of pinned Xfers, one per target, submitted to
// the worker pool, and releases the deliveries untimed.
func (a *fanoutParArm) planRound() (time.Duration, error) {
	ctx := context.Background()
	si := a.src.Instance(0)
	out, err := si.Output()
	if err != nil {
		return 0, err
	}
	pl := roadrunner.NewPlan()
	nodes := make([]*roadrunner.PlanNode, len(a.targets))
	for i, dst := range a.targets {
		nodes[i] = pl.Xfer(a.src, dst, roadrunner.WithSourceInstance(si),
			roadrunner.WithSourceRef(out), roadrunner.WithFlows(len(a.targets)))
	}
	start := time.Now()
	job, err := a.p.Submit(ctx, pl)
	if err != nil {
		return 0, err
	}
	res, err := job.Wait(ctx)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	for i, node := range nodes {
		nr := res.Node(node)
		if nr.Err != nil {
			return 0, nr.Err
		}
		if err := a.targets[i].Release(nr.Ref()); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// loopRound times one Transfer per target in sequence and releases the
// deliveries untimed.
func (a *fanoutParArm) loopRound() (time.Duration, error) {
	refs := make([]roadrunner.DataRef, len(a.targets))
	start := time.Now()
	for i, dst := range a.targets {
		ref, _, err := a.p.Transfer(a.src, dst, roadrunner.WithFlows(len(a.targets)))
		if err != nil {
			return 0, err
		}
		refs[i] = ref
	}
	elapsed := time.Since(start)
	for i, dst := range a.targets {
		if err := dst.Release(refs[i]); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// medianDuration sorts d in place and returns its middle element.
func medianDuration(d []time.Duration) time.Duration {
	slices.Sort(d)
	return d[len(d)/2]
}
