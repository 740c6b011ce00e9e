package core

import (
	"context"
	"fmt"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// NetworkOptions tunes a network-mode transfer.
type NetworkOptions struct {
	// Ctx cancels the transfer; nil means never cancelled. Cancellation is
	// observed at pipeline entry, at the stage boundary, and at every hose
	// chunk of both stage loops; an aborted transfer destroys the pair's
	// channel (draining stranded pages) exactly as other failures do.
	Ctx context.Context
	// Link is the modeled network path between the two nodes; nil means
	// no network time is attributed (testing).
	Link *netsim.Link
	// Flows is the number of concurrent flows sharing the link
	// (fan-out degree); values < 1 mean 1.
	Flows int
	// ForceCopyPath disables vmsplice/splice and moves the payload with
	// plain write/read syscalls — the ablation quantifying the
	// near-zero-copy win in isolation (DESIGN.md §5.1).
	ForceCopyPath bool
	// SerializeFirst re-enables the codec inside the guest before
	// transmission — the ablation quantifying the serialization-free win
	// (DESIGN.md §5.2).
	SerializeFirst bool
	// BatchSyscalls submits the per-chunk vmsplice/splice operations as
	// io_uring-style batches (one kernel entry per side), implementing the
	// syscall-batching extension of the paper's future work (§9).
	BatchSyscalls bool
	// NoChannelCache forces per-call channel establishment and teardown
	// (connection + hose pipes created and closed around every transfer —
	// the pre-cache behavior, kept as the cold-path ablation). By default
	// the channel is cached and reused across transfers of the same shim
	// pair, so warm transfers issue zero connect/pipe syscalls.
	NoChannelCache bool
	// SourceRef pins the source region (see UserOptions.SourceRef).
	SourceRef *OutputRef
	// Gates carries test instrumentation (see PipelineGates).
	Gates *PipelineGates
}

// NetworkTransfer implements Algorithm 1: the source shim maps the guest's
// output pages into a dedicated pipe (the virtual data hose) with vmsplice,
// splices them into a socket towards the target node, and the target shim
// splices them back out of its socket and writes them into the target
// function's linear memory. No user↔kernel payload copies occur on the wire
// path; the only copy is the final write into the target VM's memory —
// the paper's "near-zero copy" (§7).
//
// The two sides run as the staged pipeline of pipeline.go, mirroring the
// paper's real deployment where FunctionA's shim and FunctionB's shim are
// separate processes executing Algorithm 1 concurrently: the source VM is
// locked only while its pages enter the hose, the target VM only while the
// hose drains into linear memory, and the target drains chunk k while the
// source vmsplices chunk k+1.
//
// The control plane — connection handshake and hose pipes — is a cached
// channel (channels.go): only the first transfer between a shim pair pays
// it (reported as Breakdown.Setup), and warm transfers issue zero
// connect/pipe syscalls. Teardown moves from per-call close_all to channel
// eviction and shim Close; NoChannelCache restores the per-call behavior.
func NetworkTransfer(src, dst *Function, opts NetworkOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim == dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrSameVM
	}
	if src.shim.Kernel() == dst.shim.Kernel() {
		return InboundRef{}, metrics.TransferReport{}, ErrSameNode
	}
	kind := chanNetwork
	chunkBytes := src.shim.hoseCap
	if opts.ForceCopyPath {
		kind = chanNetworkCopy // plain write/read needs no hose pipes
		// The copy-path ablation moves the payload as one write/read
		// exchange and gets no chunk pipelining.
		chunkBytes = 0
	}
	spec := pipelineSpec{
		mode:       "network",
		kind:       kind,
		perCall:    opts.NoChannelCache,
		ctx:        opts.Ctx,
		gates:      opts.Gates,
		src:        src,
		dst:        dst,
		link:       opts.Link,
		flows:      opts.Flows,
		chunkBytes: chunkBytes,
		sourceRef:  opts.SourceRef,
		ops:        networkOps{},

		forceCopy:      opts.ForceCopyPath,
		serializeFirst: opts.SerializeFirst,
		batchSyscalls:  opts.BatchSyscalls,
	}
	return runPipeline(&spec)
}

// hoseChunks is the number of hose-sized chunks a payload crosses in.
func hoseChunks(out OutputRef, hoseCap int) int {
	if hoseCap <= 0 || out.Len == 0 {
		return 1
	}
	k := (int(out.Len) + hoseCap - 1) / hoseCap
	if k < 1 {
		k = 1
	}
	return k
}

// networkOps is the network-mode stage pair; like kernelOps it is a
// zero-size stateless type, with the mode's knobs (forceCopy,
// serializeFirst, batchSyscalls) read from the spec.
type networkOps struct{}

// egress is FunctionA's side of Algorithm 1 (lines 1-13): locate the
// output region, optionally serialize (ablation), take the zero-copy view,
// then vmsplice each chunk into the data hose and splice it onward into the
// socket. Runs under the source VM lock.
func (networkOps) egress(st *pipelineState) (OutputRef, error) {
	sp := &st.spec
	f := sp.src
	s := f.shim
	ch := st.ch

	// Algorithm 1 lines 1-4: locate the output region.
	swIO := metrics.NewStopwatch(s.now)
	out, err := f.sourceOutput(sp.sourceRef)
	if err != nil {
		return OutputRef{}, err
	}
	locT := swIO.Lap()
	s.acct.CPU(metrics.User, locT)
	st.em.wasmIO += locT

	// Optional ablation: re-enable in-guest serialization.
	if sp.serializeFirst {
		swSer := metrics.NewStopwatch(s.now)
		encOut, err := f.callPacked(guest.ExportSerialize, uint64(out.Ptr), uint64(out.Len))
		if err != nil {
			return OutputRef{}, fmt.Errorf("serialize ablation: %w", err)
		}
		st.em.serialization += swSer.Lap()
		out = encOut
	}

	// read_memory_host: zero-copy view of the source region.
	swIO2 := metrics.NewStopwatch(s.now)
	view, err := f.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return OutputRef{}, err
	}
	viewT := swIO2.Lap()
	s.acct.CPU(metrics.User, viewT)
	st.em.wasmIO += viewT
	st.announce(out)

	// network_data_transfer_source (Algorithm 1 lines 6-13).
	swT := metrics.NewStopwatch(s.now)
	if sp.forceCopy {
		if _, err := s.proc.Write(ch.cfd, view); err != nil {
			return OutputRef{}, fmt.Errorf("copy-path send: %w", err)
		}
	} else {
		if sp.batchSyscalls {
			s.proc.BeginBatch()
		}
		for off := 0; off < len(view); {
			if err := CtxErr(sp.ctx); err != nil {
				return OutputRef{}, err
			}
			chunk := len(view) - off
			if chunk > s.hoseCap {
				chunk = s.hoseCap
			}
			// vmsplice(vdh, address, length): gift the guest pages into
			// the hose without copying.
			if _, err := s.proc.Vmsplice(ch.wfd, view[off:off+chunk]); err != nil {
				return OutputRef{}, fmt.Errorf("vmsplice: %w", err)
			}
			// splice(vdh, socket, length): move page references to the
			// socket.
			for moved := 0; moved < chunk; {
				n, err := s.proc.Splice(ch.rfd, ch.cfd, chunk-moved)
				if err != nil {
					return OutputRef{}, fmt.Errorf("splice out: %w", err)
				}
				moved += n
			}
			off += chunk
		}
		if sp.batchSyscalls {
			s.proc.EndBatch()
		}
	}
	sendT := swT.Lap()
	s.acct.CPU(metrics.Kernel, sendT)
	st.em.transfer += sendT
	return out, nil
}

// ingress is FunctionB's side of Algorithm 1 (lines 15-29): allocate
// target memory, splice each chunk from the socket into the target hose and
// deposit its pages into linear memory — the single unavoidable copy of the
// near-zero-copy path — then optionally deserialize (ablation). Runs under
// the target VM lock.
func (networkOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	sp := &st.spec
	f := sp.dst
	s := f.shim
	ch := st.ch

	swIO := metrics.NewStopwatch(s.now)
	dstPtr, err := f.view.Allocate(out.Len)
	if err != nil {
		return InboundRef{}, err
	}
	// Every failure past this point rewinds the allocation above via
	// ingressAbort: the drain holds the VM lock, so it is the top
	// allocation and the bump heap returns to its pre-transfer position.
	wv, err := f.view.WritableView(dstPtr, out.Len)
	if err != nil {
		return ingressAbort(f, dstPtr, err)
	}
	allocT := swIO.Lap()
	s.acct.CPU(metrics.User, allocT)
	st.im.wasmIO += allocT

	// network_data_transfer_target (Algorithm 1 lines 21-29).
	swR := metrics.NewStopwatch(s.now)
	if sp.forceCopy {
		for off := 0; off < len(wv); {
			if err := CtxErr(sp.ctx); err != nil {
				return ingressAbort(f, dstPtr, err)
			}
			n, err := s.proc.Read(ch.sfd, wv[off:])
			if err != nil {
				return ingressAbort(f, dstPtr, fmt.Errorf("copy-path recv: %w", err))
			}
			if n == 0 {
				return ingressAbort(f, dstPtr, fmt.Errorf("copy-path recv: zero-progress read: %w", kernel.ErrClosed))
			}
			off += n
		}
		recvT := swR.Lap()
		s.acct.CPU(metrics.Kernel, recvT)
		st.im.transfer += recvT
	} else {
		if sp.batchSyscalls {
			s.proc.BeginBatch()
		}
		received := 0
		for received < int(out.Len) {
			if err := CtxErr(sp.ctx); err != nil {
				return ingressAbort(f, dstPtr, err)
			}
			chunk := int(out.Len) - received
			if chunk > s.hoseCap {
				chunk = s.hoseCap
			}
			// splice(socket_fd, target_vdh, length).
			for moved := 0; moved < chunk; {
				n, err := s.proc.Splice(ch.sfd, ch.twfd, chunk-moved)
				if err != nil {
					return ingressAbort(f, dstPtr, fmt.Errorf("splice in: %w", err))
				}
				moved += n
			}
			kernelT := swR.Lap()
			s.acct.CPU(metrics.Kernel, kernelT)
			st.im.transfer += kernelT

			// write_memory_host: deposit the hose pages directly into
			// the target VM's linear memory — the single unavoidable
			// copy of the near-zero-copy path.
			swW := metrics.NewStopwatch(s.now)
			refs, err := s.proc.ReadRefs(ch.trfd, chunk)
			if err != nil {
				return ingressAbort(f, dstPtr, fmt.Errorf("drain hose: %w", err))
			}
			off := received
			for _, ref := range refs {
				off += copy(wv[off:], ref.Bytes())
			}
			pagebuf.ReleaseAll(refs)
			s.acct.Copy(metrics.User, off-received)
			received = off
			wIO := swW.Lap()
			s.acct.CPU(metrics.User, wIO)
			st.im.wasmIO += wIO
			swR = metrics.NewStopwatch(s.now)
		}
		if sp.batchSyscalls {
			s.proc.EndBatch()
		}
	}

	// Ablation follow-up: decode in the target guest.
	resultRef := InboundRef{Ptr: dstPtr, Len: out.Len}
	if sp.serializeFirst {
		swDe := metrics.NewStopwatch(s.now)
		decOut, err := f.callPacked(guest.ExportDeserialize, uint64(dstPtr), uint64(out.Len))
		if err != nil {
			return ingressAbort(f, dstPtr, fmt.Errorf("deserialize ablation: %w", err))
		}
		st.im.serialization += swDe.Lap()
		resultRef = InboundRef{Ptr: decOut.Ptr, Len: decOut.Len}
	}
	return resultRef, nil
}
