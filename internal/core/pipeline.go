// The staged data-plane pipeline. Every cross-sandbox transfer (kernel,
// network, multicast) is the same skeleton — resolve the source region,
// acquire the pair's channel, push pages in (egress), drain pages out into
// the target's linear memory (ingress), assemble usage and breakdown — and
// this file owns that skeleton. The per-mode files (transfer.go, network.go)
// contribute only the two stage bodies, as stateless stageOps
// implementations; multicast.go orchestrates its fan-out itself.
//
// Concurrency model (DESIGN.md §3): the pre-pipeline engine held BOTH VM
// locks for a transfer's whole duration, so a chain's interior VMs sat
// locked-idle while the other endpoint worked. The pipeline instead scopes
// each VM lock to its stage:
//
//   - the source VM lock is held only while the source's pages enter the
//     channel (locate/view/vmsplice-or-write). The payload stays valid past
//     unlock because the channel holds page references — pool pages own
//     their bytes, and gifted (vmspliced) pages alias a region of linear
//     memory that nothing rewrites while the transfer is in flight;
//   - the target VM lock is held only while the channel drains into the
//     target's linear memory (allocate/splice/copy);
//   - the two stages run on separate goroutines, so the target drains chunk
//     k while the source vmsplices chunk k+1. Breakdown.Overlap records the
//     window both stages ran concurrently, making the reported latency the
//     pipeline's critical path rather than the sum of sequential laps.
//
// Serialization that must remain is provided by the pair lock
// (Shim.pairLock): transfers of one ordered (source shim, target shim)
// pair share one cached channel and therefore execute one at a time.
// Transfers of different pairs — including pairs that share a VM —
// interleave stage by stage, which is what frees a chain's interior VMs
// between their stages. No code path holds two VM locks at once.
//
// Memory model (DESIGN.md §10): the steady-state transfer path allocates
// nothing. Per-transfer state — the announce/result channels, both stages'
// metrics, the spec itself — lives in a pooled pipelineState recycled
// through a sync.Pool, and the ingress stage runs on a parked stage worker
// fed through an unbuffered queue rather than a freshly spawned goroutine
// (a `go` statement with arguments allocates its closure). The recycled
// channels are never closed: an aborting egress sends an explicit sentinel
// message instead, so the same channel instance can carry the next
// transfer's announcement.
package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// errEgressAborted is the ingress stage's result when the source stage
// failed before announcing the payload size; the egress error is the one
// reported.
var errEgressAborted = errors.New("core: source stage aborted before announcing output")

// CtxErr reports a context's cancellation non-blockingly, treating a nil
// context as never cancelled. The data plane polls it at its cancellation
// points: pipeline entry, stage entry, and every chunk boundary of a stage
// loop — a cancelled transfer aborts through the ordinary error path, which
// poisons (destroys) the pair's channel, drains any stranded pages back to
// the pool and closes the channel's descriptors, so cancellation conserves
// the same FD and page baselines every other transfer failure does.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// PipelineGates carries test instrumentation for the staged pipeline. All
// fields are optional; production callers leave the struct nil.
type PipelineGates struct {
	// BeforeIngress runs in the target-stage goroutine after the source
	// has announced its output region and before the target VM lock is
	// taken. Blocking here holds the transfer in its "wire in flight"
	// state — payload queued in the channel, neither VM lock held — which
	// is how tests prove an interior VM stays free mid-transfer.
	BeforeIngress func()
}

// stageMetrics accumulates one stage's breakdown contributions.
type stageMetrics struct {
	wasmIO        time.Duration
	transfer      time.Duration
	serialization time.Duration
}

// activity is the stage's total measured work.
func (m stageMetrics) activity() time.Duration {
	return m.wasmIO + m.transfer + m.serialization
}

// modeledOverlap is the critical-path credit of a k-chunk staged transfer.
// The stages form a chunk pipeline — egress CPU → wire → ingress CPU, each
// chunk's ingress dependent on its own egress only — so with per-chunk
// stage costs e, w, i the critical path is e + w + i + (k-1)·max(e,w,i),
// against a sequential sum of k·(e+w+i); the difference, restated over the
// measured stage totals E/W/I, is (k-1)/k · (E+W+I − max(E,W,I)).
//
// The overlap is modeled, not wall-measured, for the same reason wire time
// and syscall mode-switches are modeled (DESIGN.md §1): in the paper's
// testbed the two shims are separate processes on separate cores genuinely
// executing Algorithm 1 concurrently, which a single-process simulation —
// possibly pinned to one core — cannot physically reproduce. The stages DO
// run on separate goroutines (the locking and streaming are real); the
// model attributes the wall-clock those goroutines would save with real
// parallelism. One chunk means no pipelining, hence zero overlap.
func modeledOverlap(k int, e, w, i time.Duration) time.Duration {
	if k <= 1 {
		return 0
	}
	longest := max(e, max(w, i))
	return (e + w + i - longest) * time.Duration(k-1) / time.Duration(k)
}

// stageOps is one transfer mode's pair of stage bodies. Implementations are
// stateless zero-size types (kernelOps, networkOps): everything a stage
// needs rides in the pipelineState, so storing an implementation in a spec
// allocates nothing.
type stageOps interface {
	// egress runs under the source VM lock: resolve the output region,
	// announce it via st.announce (unblocking the target stage), push the
	// payload into st.ch. It must call st.announce exactly once, before
	// the first byte moves.
	egress(st *pipelineState) (OutputRef, error)
	// ingress runs under the target VM lock: drain st.ch into the
	// target's linear memory and return the delivered region.
	ingress(st *pipelineState, out OutputRef) (InboundRef, error)
}

// pipelineSpec describes one staged cross-sandbox transfer. The engine owns
// locking, channel lifecycle, stage scheduling and report assembly; ops
// carries the mode-specific stage bodies, and the remaining fields are the
// union of the modes' knobs (a plain value struct keeps the spec free of
// per-call closures).
type pipelineSpec struct {
	mode     string // report mode tag
	kind     chanKind
	perCall  bool            // NoChannelCache: ephemeral channel, per-call teardown
	ctx      context.Context // cancellation; nil means never cancelled
	gates    *PipelineGates
	src, dst *Function
	link     *netsim.Link // modeled wire; nil = no network time
	flows    int
	// chunkBytes is the channel chunk size the payload crosses in — the
	// pipeline depth for overlap attribution is ceil(len/chunkBytes).
	// Zero means 1 chunk (no pipelining within the transfer, e.g. the
	// kernel path's single write/read exchange).
	chunkBytes int
	sourceRef  *OutputRef // pinned source region (see UserOptions.SourceRef)
	ops        stageOps

	// Network-mode knobs (see NetworkOptions).
	forceCopy      bool
	serializeFirst bool
	batchSyscalls  bool
}

// chunks is the transfer's pipeline depth for a payload of out.Len bytes.
func (sp *pipelineSpec) chunks(out OutputRef) int {
	if sp.chunkBytes <= 0 {
		return 1
	}
	return hoseChunks(out, sp.chunkBytes)
}

// announceMsg carries the egress announcement to the ingress stage. The
// aborted sentinel replaces closing the channel — the channels are pooled
// and reused, and a closed channel could never be.
type announceMsg struct {
	out     OutputRef
	aborted bool
}

// ingressResult is the ingress stage's outcome.
type ingressResult struct {
	ref InboundRef
	m   stageMetrics
	err error
}

// pipelineState is the per-transfer scratch: the spec, the acquired
// channel, both stages' metrics and the two rendezvous channels. States are
// recycled through statePool, so a warm transfer allocates none of it; the
// channels are never closed (see announceMsg) and carry exactly one message
// each per transfer, which is what makes recycling safe — after the caller
// receives the ingress result both channels are empty and no goroutine
// retains the state.
type pipelineState struct {
	spec       pipelineSpec
	ch         *channel
	em, im     stageMetrics
	out        OutputRef
	announced  bool
	announceCh chan announceMsg
	ingressCh  chan ingressResult
}

var statePool = sync.Pool{New: func() any {
	return &pipelineState{
		announceCh: make(chan announceMsg, 1),
		ingressCh:  make(chan ingressResult, 1),
	}
}}

// putPipelineState clears the state's references (so a pooled state pins no
// platform graph) and recycles it.
func putPipelineState(st *pipelineState) {
	st.spec = pipelineSpec{}
	st.ch = nil
	st.em, st.im = stageMetrics{}, stageMetrics{}
	st.out = OutputRef{}
	st.announced = false
	statePool.Put(st)
}

// announce records the source's output region and unblocks the ingress
// stage. Stage bodies call it exactly once, before the first payload byte
// moves.
func (st *pipelineState) announce(o OutputRef) {
	st.out = o
	st.announced = true
	st.announceCh <- announceMsg{out: o}
}

// ingressQ hands states to parked stage workers. It is unbuffered on
// purpose: a send succeeds only when a worker is already parked on the
// other side, and dispatchIngress grows the worker set otherwise.
var ingressQ = make(chan *pipelineState)

// dispatchIngress schedules st's ingress stage: on a parked stage worker
// when one is available (the warm path — no goroutine spawn, no
// allocation), else on a new worker that parks afterwards. Workers live for
// the process and their population is bounded by the peak number of
// concurrent transfers.
func dispatchIngress(st *pipelineState) {
	select {
	case ingressQ <- st:
	default:
		go ingressWorker(st)
	}
}

func ingressWorker(st *pipelineState) {
	for {
		st.runIngress()
		// The state was handed back through st.ingressCh; it must not be
		// touched again — park for the next transfer's state.
		st = <-ingressQ
	}
}

// runIngress is the target stage: wait for the announced output, then drain
// under the target VM lock alone. It sends exactly one result on
// st.ingressCh and touches st never again afterwards.
func (st *pipelineState) runIngress() {
	msg := <-st.announceCh
	if msg.aborted {
		st.ingressCh <- ingressResult{err: errEgressAborted}
		return
	}
	sp := &st.spec
	if sp.gates != nil && sp.gates.BeforeIngress != nil {
		sp.gates.BeforeIngress()
	}
	// Stage-boundary cancellation point: the payload is on the wire
	// (queued in the channel), neither VM lock held. The destroy both
	// releases the queued pages back to the pool and unblocks an egress
	// still pushing into a full ring (its write fails with ring-closed,
	// which the error join in runPipeline overrides with the
	// cancellation).
	if err := CtxErr(sp.ctx); err != nil {
		st.ch.destroy()
		st.ingressCh <- ingressResult{err: err}
		return
	}
	dstShim := sp.dst.shim
	dstShim.mu.Lock()
	ref, err := sp.ops.ingress(st, msg.out)
	dstShim.mu.Unlock()
	st.ingressCh <- ingressResult{ref: ref, m: st.im, err: err}
}

// sourceOutput resolves the region a transfer's source stage reads: the
// guest's current output (locate_memory_region), or — when the caller pins
// an explicit region, as streaming chains do — set_output followed by
// locate, atomically under the VM lock the caller holds. The atomicity is
// what keeps concurrent chains over shared interior functions linearizable:
// no other transfer can retarget the function's output between the two
// calls. CPU is charged by the surrounding stage stopwatch.
func (f *Function) sourceOutput(pinned *OutputRef) (OutputRef, error) {
	if pinned != nil {
		if _, err := f.inst.Call(guest.ExportSetOutput, uint64(pinned.Ptr), uint64(pinned.Len)); err != nil {
			return OutputRef{}, err
		}
	}
	return f.locateQuiet()
}

// runPipeline executes a staged transfer. Stage scheduling:
//
//	caller goroutine:  pair lock → channel → [src lock: egress] → join
//	stage worker:              wait announce → [dst lock: ingress]
//
// The pair lock is the only lock held across stages; VM locks never nest.
func runPipeline(spec *pipelineSpec) (InboundRef, metrics.TransferReport, error) {
	srcShim, dstShim := spec.src.shim, spec.dst.shim
	pl := srcShim.pairLock(dstShim, spec.kind)
	pl.Lock()
	defer pl.Unlock()
	// First cancellation point: a transfer cancelled while waiting on the
	// pair lock aborts before acquiring a channel or touching either VM.
	if err := CtxErr(spec.ctx); err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	beforeSrc := srcShim.acct.Snapshot()
	beforeDst := dstShim.acct.Snapshot()

	ch, setup, err := acquireTransferChannel(srcShim, dstShim, spec.kind, spec.perCall)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}

	st := statePool.Get().(*pipelineState)
	st.spec = *spec
	st.ch = ch
	dispatchIngress(st)

	// Source stage, inline, under the source VM lock alone.
	srcShim.mu.Lock()
	_, eerr := spec.ops.egress(st)
	srcShim.mu.Unlock()
	if eerr != nil {
		if !st.announced {
			st.announceCh <- announceMsg{aborted: true}
		} else {
			// The target stage may be blocked draining a channel that will
			// never fill; poisoning the channel unblocks it. The release
			// below destroys it again — destroy is idempotent.
			ch.destroy()
		}
		ires := <-st.ingressCh
		putPipelineState(st)
		releaseTransferChannel(ch, spec.perCall, false)
		// A cancelled ingress poisons the channel to unblock the egress,
		// whose push then fails with ring-closed: when the discarded
		// ingress result carries the cancellation, that is the cause and
		// the error reported. A genuine egress fault that merely coincides
		// with an expiring context keeps its own error.
		if cerr := CtxErr(spec.ctx); cerr != nil && errors.Is(ires.err, cerr) {
			eerr = cerr
		}
		return InboundRef{}, metrics.TransferReport{}, eerr
	}
	ires := <-st.ingressCh
	out, em := st.out, st.em
	putPipelineState(st)
	if ires.err != nil {
		releaseTransferChannel(ch, spec.perCall, false)
		return InboundRef{}, metrics.TransferReport{}, ires.err
	}
	releaseTransferChannel(ch, spec.perCall, true)

	usage := srcShim.acct.Snapshot().Sub(beforeSrc).Add(dstShim.acct.Snapshot().Sub(beforeDst))
	report := assembleReport(spec, out, setup, em, ires.m, usage)
	return ires.ref, report, nil
}

// assembleReport folds both stages' measurements into the transfer report.
// Modeled syscall mode-switch time joins the Transfer component as before;
// Overlap is the modeled critical-path credit of the chunk pipeline.
func assembleReport(spec *pipelineSpec, out OutputRef, setup time.Duration, em, im stageMetrics, usage metrics.Usage) metrics.TransferReport {
	srcShim := spec.src.shim
	bd := metrics.Breakdown{
		Setup:         setup,
		Transfer:      em.transfer + im.transfer + srcShim.Kernel().SyscallTime(usage.Syscalls),
		Serialization: em.serialization + im.serialization,
		WasmIO:        em.wasmIO + im.wasmIO,
	}
	if spec.link != nil {
		bd.Network = spec.link.TransferTime(int64(out.Len), spec.flows)
	}
	bd.Overlap = modeledOverlap(spec.chunks(out), em.activity(), bd.Network, im.activity())
	return metrics.TransferReport{
		Bytes:     int64(out.Len),
		Breakdown: bd,
		Usage:     usage,
		Mode:      spec.mode,
	}
}
