package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"github.com/polaris-slo-cloud/roadrunner-go"
)

// system is one deployed workload: a platform plus the functions a request
// runs through.
type system interface {
	// do runs one request end to end, checks every delivery against
	// roadrunner.ExpectedChecksum and releases every region it made land.
	do(ctx context.Context, tr *tracer) error
	// functions lists every deployed function, for the conservation checks.
	functions() []*roadrunner.Function
	// sources lists the instances that originate transfers; each caches at
	// most channelCap channels.
	sources() []*roadrunner.Instance
}

// workload is one benchmark input: how to deploy it and how many requests
// warm it up.
type workload struct {
	name string
	// warmup requests run during set-up, after which every channel a
	// request can reuse is cached.
	warmup int
	deploy func(p *roadrunner.Platform, seed uint64) (system, error)
}

// Each workload makes a different layer dominant; README.md gives the
// reasons and the layer each is expected to move.
var workloads = []workload{
	{name: "relay-1k", warmup: 500, deploy: deployRelay},
	{name: "ingest-256k", warmup: 20, deploy: deployIngest},
	{name: "scatter-1k", warmup: 500, deploy: deployScatter},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	relayBytes   = 1 << 10
	ingestBytes  = 256 << 10
	scatterBytes = 1 << 10
	// channelCap is the per-shim channel cache size the platform documents
	// (ChannelStats: channels are cached by the shim that originates them).
	channelCap = 16
	// scatterWorkers exceeds channelCap, so scatter-1k both reuses and
	// establishes channels.
	scatterWorkers = 24
	scatterFanout  = 4
)

// errMismatch marks a delivery whose checksum differs from the oracle.
var errMismatch = errors.New("checksum mismatch")

// checksum digests a delivered region in inst's guest and compares it with
// the digest of an n-byte payload made by Produce.
func checksum(tr *tracer, inst *roadrunner.Instance, ref roadrunner.DataRef, n int, want uint64) error {
	s := tr.begin()
	sum, err := inst.Checksum(ref)
	tr.end(spanConsume, s)
	if err != nil {
		return fmt.Errorf("checksum at %s: %w", inst.Name(), err)
	}
	tr.guestBytes(n)
	if sum != want {
		return fmt.Errorf("%w at %s: got %#x, want %#x", errMismatch, inst.Name(), sum, want)
	}
	return nil
}

// release hands a landed region back to inst's guest allocator.
func release(tr *tracer, inst *roadrunner.Instance, ref roadrunner.DataRef) error {
	s := tr.begin()
	err := inst.Release(ref)
	tr.end(spanRelease, s)
	if err != nil {
		return fmt.Errorf("release at %s: %w", inst.Name(), err)
	}
	return nil
}

// output reads inst's current output region.
func output(tr *tracer, inst *roadrunner.Instance) (roadrunner.DataRef, error) {
	s := tr.begin()
	ref, err := inst.Output()
	tr.end(spanOutput, s)
	if err != nil {
		return ref, fmt.Errorf("output of %s: %w", inst.Name(), err)
	}
	return ref, nil
}

// line forwards a payload from fns[0] through every later function, one
// pinned TransferCtx hop each, then checksums it at the tail. relay-1k and
// ingest-256k are lines.
type line struct {
	p     *roadrunner.Platform
	fns   []*roadrunner.Function
	insts []*roadrunner.Instance
	modes []roadrunner.Mode // modes[i] is the hop from fns[i] to fns[i+1]
	size  int
	want  uint64
	// produce makes a fresh payload at the head on every request; without
	// it the head's output, produced once at set-up, is forwarded.
	produce bool
	head    roadrunner.DataRef
	landed  []roadrunner.DataRef
}

// stage places one function of a line: on node, or inside the VM of the
// line's function at index shareWith (when not -1).
type stage struct {
	name, node string
	shareWith  int
}

func deployLine(p *roadrunner.Platform, stages []stage, modes []roadrunner.Mode, size int, produce bool) (*line, error) {
	l := &line{p: p, modes: modes, size: size, want: roadrunner.ExpectedChecksum(size), produce: produce,
		landed: make([]roadrunner.DataRef, len(modes))}
	for _, st := range stages {
		spec := roadrunner.FunctionSpec{Name: st.name, Node: st.node}
		if st.shareWith >= 0 {
			spec = roadrunner.FunctionSpec{Name: st.name, ShareVMWith: l.fns[st.shareWith]}
		}
		f, err := p.Deploy(spec)
		if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", st.name, err)
		}
		l.fns = append(l.fns, f)
		l.insts = append(l.insts, f.Instance(0))
	}
	if !produce {
		if err := l.fns[0].Produce(size); err != nil {
			return nil, fmt.Errorf("produce at %s: %w", stages[0].name, err)
		}
		head, err := l.insts[0].Output()
		if err != nil {
			return nil, fmt.Errorf("output of %s: %w", stages[0].name, err)
		}
		l.head = head
	}
	return l, nil
}

// deployRelay places six hops across two nodes, in the order user, kernel,
// network, user, kernel, network.
func deployRelay(p *roadrunner.Platform, _ uint64) (system, error) {
	return deployLine(p, []stage{
		{"relay0", "edge", -1},
		{"relay1", "", 0},
		{"relay2", "edge", -1},
		{"relay3", "cloud", -1},
		{"relay4", "", 3},
		{"relay5", "cloud", -1},
		{"relay6", "edge", -1},
	}, []roadrunner.Mode{
		roadrunner.ModeUserSpace, roadrunner.ModeKernelSpace, roadrunner.ModeNetwork,
		roadrunner.ModeUserSpace, roadrunner.ModeKernelSpace, roadrunner.ModeNetwork,
	}, relayBytes, false)
}

// deployIngest places a producing head, a kernel hop and a network hop.
func deployIngest(p *roadrunner.Platform, _ uint64) (system, error) {
	return deployLine(p, []stage{
		{"ingest0", "edge", -1},
		{"ingest1", "edge", -1},
		{"ingest2", "cloud", -1},
	}, []roadrunner.Mode{roadrunner.ModeKernelSpace, roadrunner.ModeNetwork}, ingestBytes, true)
}

func (l *line) functions() []*roadrunner.Function { return l.fns }

func (l *line) sources() []*roadrunner.Instance { return l.insts[:len(l.insts)-1] }

func (l *line) do(ctx context.Context, tr *tracer) error {
	payload := l.head
	if l.produce {
		s := tr.begin()
		err := l.fns[0].Produce(l.size)
		tr.end(spanProduce, s)
		if err != nil {
			return fmt.Errorf("produce: %w", err)
		}
		tr.guestBytes(l.size)
		if payload, err = output(tr, l.insts[0]); err != nil {
			return err
		}
	}
	src := payload
	var err error
	hops := 0
	for ; hops < len(l.modes); hops++ {
		s := tr.begin()
		ref, rep, herr := l.p.TransferCtx(ctx, l.fns[hops], l.fns[hops+1],
			roadrunner.WithMode(l.modes[hops]), roadrunner.WithSourceRef(src))
		tr.end(xferSpan(rep.Mode), s)
		if herr != nil {
			err = fmt.Errorf("hop %d: %w", hops+1, herr)
			break
		}
		tr.delivery(rep)
		l.landed[hops] = ref
		src = ref
	}
	if err == nil {
		err = checksum(tr, l.insts[len(l.insts)-1], src, l.size, l.want)
	}
	// Tail first, so that a VM holding two regions (a shared VM, or the
	// head's fresh payload) rewinds its bump heap past both.
	for i := hops - 1; i >= 0; i-- {
		if rerr := release(tr, l.insts[i+1], l.landed[i]); err == nil {
			err = rerr
		}
	}
	if l.produce {
		if rerr := release(tr, l.insts[0], payload); err == nil {
			err = rerr
		}
	}
	return err
}

// scatter submits one Plan per request: a routed Invoke from a front pool
// into a dispatcher pool, whose delivery feeds Xfer nodes to workers drawn
// from a pool larger than a shim's channel cache.
type scatter struct {
	p       *roadrunner.Platform
	front   *roadrunner.Function
	disp    *roadrunner.Function
	workers []*roadrunner.Function
	rng     *rand.Rand
	order   []int // worker indices; a request's draw is a prefix of it
	want    uint64
}

func deployScatter(p *roadrunner.Platform, seed uint64) (system, error) {
	both := []string{"edge", "cloud"}
	w := &scatter{p: p, rng: rand.New(rand.NewPCG(seed, 0x5ca7)), want: roadrunner.ExpectedChecksum(scatterBytes)}
	var err error
	if w.front, err = p.Deploy(roadrunner.FunctionSpec{Name: "front", Replicas: 2, Nodes: both}); err != nil {
		return nil, fmt.Errorf("deploy front: %w", err)
	}
	if w.disp, err = p.Deploy(roadrunner.FunctionSpec{Name: "dispatcher", Replicas: 2, Nodes: both}); err != nil {
		return nil, fmt.Errorf("deploy dispatcher: %w", err)
	}
	for i := 0; i < scatterWorkers; i++ {
		name := fmt.Sprintf("worker%02d", i)
		f, err := p.Deploy(roadrunner.FunctionSpec{Name: name, Node: both[i%2]})
		if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", name, err)
		}
		w.workers = append(w.workers, f)
		w.order = append(w.order, i)
	}
	return w, nil
}

func (w *scatter) functions() []*roadrunner.Function {
	return append([]*roadrunner.Function{w.front, w.disp}, w.workers...)
}

func (w *scatter) sources() []*roadrunner.Instance {
	return append(w.front.Instances(), w.disp.Instances()...)
}

func (w *scatter) do(ctx context.Context, tr *tracer) error {
	var (
		xfers   [scatterFanout]*roadrunner.PlanNode
		targets [scatterFanout]*roadrunner.Function
	)
	s := tr.begin()
	pl := roadrunner.NewPlan()
	inv := pl.Invoke(w.front, w.disp, scatterBytes)
	for i := range xfers {
		// A partial Fisher-Yates shuffle draws distinct workers.
		j := i + w.rng.IntN(len(w.order)-i)
		w.order[i], w.order[j] = w.order[j], w.order[i]
		targets[i] = w.workers[w.order[i]]
		xfers[i] = pl.Xfer(w.disp, targets[i]).From(inv)
	}
	tr.end(spanPlanBuild, s)

	s = tr.begin()
	job, err := w.p.Submit(ctx, pl)
	tr.end(spanPlanSubmit, s)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	s = tr.begin()
	res, err := job.Wait(ctx)
	tr.end(spanPlanWait, s)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}

	// Verify every delivery while it is live, then release leaves before
	// the dispatcher's input and the front's payload.
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for i, x := range xfers {
		nr := res.Node(x)
		if nr.Err != nil {
			keep(fmt.Errorf("%s: %w", nr.Node, nr.Err))
			continue
		}
		tr.delivery(nr.Report())
		inst := targets[i].Instance(0)
		keep(checksum(tr, inst, nr.Ref(), scatterBytes, w.want))
		keep(release(tr, inst, nr.Ref()))
	}
	nr := res.Node(inv)
	if nr.Err != nil {
		keep(fmt.Errorf("%s: %w", nr.Node, nr.Err))
		return first
	}
	tr.delivery(nr.Report())
	iv := nr.Invocation
	tr.invocation(iv)
	keep(release(tr, iv.Target, iv.Ref))
	out, err := output(tr, iv.Source)
	keep(err)
	if err == nil {
		keep(release(tr, iv.Source, out))
	}
	return first
}
