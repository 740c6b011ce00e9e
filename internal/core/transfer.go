package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
)

// ErrSameVM signals a kernel/network transfer attempted between functions of
// one VM, where user-space transfer applies instead.
var ErrSameVM = fmt.Errorf("core: functions share a Wasm VM; use user-space transfer")

// InboundRef locates data the shim delivered into a target function's linear
// memory.
type InboundRef struct {
	Ptr uint32
	Len uint32
}

// ingressAbort rewinds an aborted ingress stage: the drain holds the VM
// lock, so dstPtr is the VM's top allocation and handing it back leaves the
// target's bump heap where the transfer found it. Shared by every ingress
// failure path — cancellation, a faulted syscall, a dead channel.
func ingressAbort(f *Function, dstPtr uint32, err error) (InboundRef, error) {
	_ = f.view.Deallocate(dstPtr)
	return InboundRef{}, err
}

// UserOptions tunes a user-space transfer.
type UserOptions struct {
	// Ctx cancels the transfer; nil means never cancelled. The user-space
	// path is a single locked stage, so cancellation is only observed at
	// entry.
	Ctx context.Context
	// SourceRef pins the source region to transfer instead of asking the
	// guest for its latest output: set_output + locate run atomically
	// inside the transfer, which is what lets streaming chains hand a
	// delivered region to the next hop without a race window (see
	// Function.sourceOutput).
	SourceRef *OutputRef
}

// UserSpaceTransfer moves the source function's current output into the
// target function within the same Wasm VM (§4.1, Fig. 4a):
//
//  1. locate_memory_region on the source,
//  2. read_output through the shim's zero-copy view,
//  3. allocate_memory in the target,
//  4. write_output into the target's linear memory.
//
// One user-space copy total, no serialization, no kernel involvement. Both
// functions live in one VM, so the single VM lock covers the whole move —
// the degenerate (stage-less) case of the pipeline.
func UserSpaceTransfer(src, dst *Function, opts UserOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim != dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrDifferentVM
	}
	if src.shim.workflow != dst.shim.workflow {
		return InboundRef{}, metrics.TransferReport{}, ErrWorkflowMismatch
	}
	if err := CtxErr(opts.Ctx); err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	s := src.shim
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.acct.Snapshot()
	sw := metrics.NewStopwatch(s.now)

	out, err := src.sourceOutput(opts.SourceRef)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	view, err := src.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	dstPtr, err := dst.view.Allocate(out.Len)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	if err := dst.view.Write(view, dstPtr); err != nil {
		// The copy never landed; rewind the destination's bump heap (the
		// region is its top allocation) so the aborted transfer leaves the
		// target where it found it.
		if derr := dst.view.Deallocate(dstPtr); derr != nil {
			err = errors.Join(err, derr)
		}
		return InboundRef{}, metrics.TransferReport{}, err
	}

	elapsed := sw.Lap()
	s.acct.CPU(metrics.User, elapsed)
	report := metrics.TransferReport{
		Bytes:     int64(out.Len),
		Breakdown: metrics.Breakdown{WasmIO: elapsed},
		Usage:     s.acct.Snapshot().Sub(before),
		Mode:      "user",
	}
	return InboundRef{Ptr: dstPtr, Len: out.Len}, report, nil
}

// KernelOptions tunes a kernel-space transfer.
type KernelOptions struct {
	// Ctx cancels the transfer; nil means never cancelled. Cancellation is
	// observed at pipeline entry, at the stage boundary, and at each read
	// of the ingress drain loop; an aborted transfer destroys the pair's
	// channel exactly as every other transfer failure does.
	Ctx context.Context
	// NoChannelCache forces per-call socketpair establishment and teardown
	// (the pre-cache behavior; the cold-path ablation). By default the IPC
	// channel is a persistent cached socketpair reused across transfers of
	// the same shim pair.
	NoChannelCache bool
	// SourceRef pins the source region (see UserOptions.SourceRef).
	SourceRef *OutputRef
	// Gates carries test instrumentation (see PipelineGates).
	Gates *PipelineGates
}

// kernelOps is the kernel-mode stage pair. A zero-size stateless type:
// everything the stages need travels in the pipelineState, so a warm
// transfer builds no per-call closures.
type kernelOps struct{}

// egress is steps 1-2 then the send half: locate + zero-copy read of the
// source region (Wasm IO), one copy_from_user into the socketpair. Runs
// under the source VM lock.
func (kernelOps) egress(st *pipelineState) (OutputRef, error) {
	f := st.spec.src
	s := f.shim
	swIO := metrics.NewStopwatch(s.now)
	out, err := f.sourceOutput(st.spec.sourceRef)
	if err != nil {
		return OutputRef{}, err
	}
	view, err := f.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return OutputRef{}, err
	}
	ioT := swIO.Lap()
	s.acct.CPU(metrics.User, ioT)
	st.em.wasmIO += ioT
	st.announce(out)

	swT := metrics.NewStopwatch(s.now)
	if _, err := s.proc.Write(st.ch.fdA, view); err != nil {
		return OutputRef{}, fmt.Errorf("ipc send: %w", err)
	}
	sendT := swT.Lap()
	s.acct.CPU(metrics.Kernel, sendT)
	st.em.transfer += sendT
	return out, nil
}

// ingress is steps 4-6: allocate in the target and receive straight into
// its linear memory. Runs under the target VM lock.
func (kernelOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	f := st.spec.dst
	s := f.shim
	swIO := metrics.NewStopwatch(s.now)
	dstPtr, err := f.view.Allocate(out.Len)
	if err != nil {
		return InboundRef{}, err
	}
	allocT := swIO.Lap()
	s.acct.CPU(metrics.User, allocT)
	st.im.wasmIO += allocT

	swR := metrics.NewStopwatch(s.now)
	wv, err := f.view.WritableView(dstPtr, out.Len)
	if err != nil {
		return ingressAbort(f, dstPtr, err)
	}
	for off := 0; off < len(wv); {
		if err := CtxErr(st.spec.ctx); err != nil {
			return ingressAbort(f, dstPtr, err)
		}
		n, err := s.proc.Read(st.ch.fdB, wv[off:])
		if err != nil {
			return ingressAbort(f, dstPtr, fmt.Errorf("ipc recv: %w", err))
		}
		if n == 0 {
			// A zero-progress read means the channel can never deliver the
			// remaining bytes; looping would spin forever.
			return ingressAbort(f, dstPtr, fmt.Errorf("ipc recv: zero-progress read: %w", kernel.ErrClosed))
		}
		off += n
	}
	recvT := swR.Lap()
	s.acct.CPU(metrics.Kernel, recvT)
	st.im.transfer += recvT
	return InboundRef{Ptr: dstPtr, Len: out.Len}, nil
}

// KernelSpaceTransfer moves the source's output to a function in a different
// sandbox on the same host via Unix-socket IPC (§4.2, Fig. 4b; §5 uses Unix
// sockets as the IPC mechanism). The payload crosses the kernel exactly
// twice — copy_from_user on send, copy directly into the target's linear
// memory on receive — with no serialization. The socketpair is a cached
// channel: only the first transfer of a pair pays the establishment syscall
// (reported as the Setup breakdown component); warm transfers touch the
// kernel exactly twice, once per payload crossing.
//
// The transfer runs as a staged pipeline (pipeline.go): the source VM is
// locked only for copy_from_user, the target VM only while the socket
// drains into its linear memory, and the two stages overlap.
func KernelSpaceTransfer(src, dst *Function, opts KernelOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim == dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrSameVM
	}
	if src.shim.Kernel() != dst.shim.Kernel() {
		return InboundRef{}, metrics.TransferReport{}, ErrDifferentNode
	}
	spec := pipelineSpec{
		mode:      "kernel",
		kind:      chanKernel,
		perCall:   opts.NoChannelCache,
		ctx:       opts.Ctx,
		gates:     opts.Gates,
		src:       src,
		dst:       dst,
		sourceRef: opts.SourceRef,
		ops:       kernelOps{},
	}
	return runPipeline(&spec)
}
