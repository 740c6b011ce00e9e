package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go"
)

// spanName identifies which public call a span wraps; spanNames spells each
// out, and the prefix before the dot is the layer the call enters.
type spanName uint8

const (
	spanRequest spanName = iota
	spanXferUser
	spanXferKernel
	spanXferNetwork
	spanXferOther // a TransferCtx that failed before reporting its mode
	spanProduce
	spanOutput
	spanConsume
	spanRelease
	spanPlanBuild
	spanPlanSubmit
	spanPlanWait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanRequest:     "request",
	spanXferUser:    "core.xfer.user",
	spanXferKernel:  "core.xfer.kernel",
	spanXferNetwork: "core.xfer.network",
	spanXferOther:   "core.xfer",
	spanProduce:     "wasm.produce",
	spanOutput:      "wasm.output",
	spanConsume:     "wasm.consume",
	spanRelease:     "wasm.release",
	spanPlanBuild:   "plan.build",
	spanPlanSubmit:  "plan.submit",
	spanPlanWait:    "plan.wait",
}

// xferSpan names a TransferCtx span by the data path its Report took.
func xferSpan(mode string) spanName {
	switch mode {
	case "user":
		return spanXferUser
	case "kernel":
		return spanXferKernel
	case "network":
		return spanXferNetwork
	}
	return spanXferOther
}

// span is one timed public call. Times are nanoseconds since the tracer's
// epoch on the monotonic clock; parent is the index of the enclosing request
// span in the tracer's buffer, -1 for a request span itself.
type span struct {
	start  int64
	dur    uint32
	req    uint32
	parent int32
	name   spanName
}

// maxSpansPerRequest bounds the spans one request of any workload records;
// the traced window ends before a request could overflow the buffer.
const maxSpansPerRequest = 32

// tracer records spans into a buffer allocated once, up front, so that
// tracing allocates nothing per request. A disabled tracer records nothing
// and never reads the clock, which is how the untraced windows run.
//
// Besides spans it sums the exact counts every delivery's Report carries
// (copy bytes, syscalls, context switches) and the placement of every
// routed invocation, at the same boundaries the spans are taken.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	req   uint32
	root  int32

	deliveries, copyBytes, syscalls, ctxSwitches int64
	invokes, localInvokes                        int64
	// wasmBytes counts payload bytes the guest produced or checksummed
	// inside wasm.produce and wasm.consume spans.
	wasmBytes int64
}

// newTracer returns an enabled tracer with room for capacity spans.
func newTracer(capacity int) *tracer {
	return &tracer{on: true, epoch: time.Now(), spans: make([]span, 0, capacity), root: -1}
}

// full reports whether another request might not fit in the buffer.
func (t *tracer) full() bool { return cap(t.spans)-len(t.spans) < maxSpansPerRequest }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openRequest reserves the request span that the request's calls nest in.
func (t *tracer) openRequest() {
	if !t.on {
		return
	}
	t.req++
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), req: t.req, parent: -1, name: spanRequest})
}

// closeRequest ends the span openRequest reserved.
func (t *tracer) closeRequest() {
	if !t.on {
		return
	}
	s := &t.spans[t.root]
	s.dur = uint32(t.now() - s.start)
}

// begin returns a start time for end; 0 when tracing is off.
func (t *tracer) begin() int64 {
	if !t.on {
		return 0
	}
	return t.now()
}

// end records a span of the current request from start until now.
func (t *tracer) end(name spanName, start int64) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{start: start, dur: uint32(t.now() - start), req: t.req, parent: t.root, name: name})
}

// delivery counts one delivery's exact resource usage. Only copy bytes,
// syscalls and context switches are read: the Report's latency, throughput,
// breakdown and CPU fields carry modeled terms.
func (t *tracer) delivery(rep roadrunner.Report) {
	if !t.on {
		return
	}
	t.deliveries++
	t.copyBytes += rep.Usage.TotalCopyBytes()
	t.syscalls += rep.Usage.Syscalls
	t.ctxSwitches += rep.Usage.ContextSwitches
}

// invocation counts one routed invocation and whether it stayed on a node.
func (t *tracer) invocation(inv *roadrunner.Invocation) {
	if !t.on || inv == nil {
		return
	}
	t.invokes++
	if inv.Source.Node() == inv.Target.Node() {
		t.localInvokes++
	}
}

// guestBytes counts payload bytes the guest produced or checksummed.
func (t *tracer) guestBytes(n int) {
	if t.on {
		t.wasmBytes += int64(n)
	}
}

// spanTotals sums the recorded spans: request count and time, and time per
// span name. Calls of one request run one after another, so a request's
// self time (its gap) is its duration minus the sum of its calls.
type spanTotals struct {
	requests int64
	byName   [numSpanNames]time.Duration
}

func (t *tracer) totals() spanTotals {
	var tot spanTotals
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent < 0 {
			tot.requests++
		}
		tot.byName[s.name] += time.Duration(s.dur)
	}
	return tot
}

// gap is the request time outside every call span.
func (tot spanTotals) gap() time.Duration {
	g := tot.byName[spanRequest]
	for n := spanName(1); n < numSpanNames; n++ {
		g -= tot.byName[n]
	}
	return g
}

// spansMagic opens a span dump; the format is described in README.md.
const spansMagic = "RRSPANS1"

// writeSpans writes every recorded span to path in the dump format.
func (t *tracer) writeSpans(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 64)
	buf = append(buf, spansMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.spans)))
	buf = append(buf, byte(numSpanNames))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, name := range spanNames {
		if _, err := w.Write(append([]byte{byte(len(name))}, name...)); err != nil {
			return err
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(s.start))
		buf = binary.LittleEndian.AppendUint32(buf, s.dur)
		buf = binary.LittleEndian.AppendUint32(buf, s.req)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.parent))
		buf = append(buf, byte(s.name))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
