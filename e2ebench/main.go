// Command e2ebench is the repository's end-to-end benchmark. It drives one
// closed-loop client through the public roadrunner API on one of three
// workloads, times every request with its own wall clock, checks every
// delivery and the platform's conservation invariants, and prints one JSON
// result line. With -trace 1 it runs an untraced and a traced window and
// prints per-layer metrics derived from spans around each public call.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash e2ebench/run.sh --workload relay-1k --seed 1 --seconds 15 --trace 0
//
// README.md lists the workloads, the metrics and what each layer metric is
// expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go"
)

// setupRuns is how many times a -trace 0 run sets up; setup_s is the median.
const setupRuns = 9

// traceSpans is the span buffer of a traced window; relay-1k fills it in a
// few seconds, after which the traced window ends early.
const traceSpans = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload workload
	seed     uint64
	window   time.Duration
	trace    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: relay-1k, ingest-256k or scatter-1k")
	seed := fs.Uint64("seed", 1, "workload seed (drives scatter-1k's worker draws)")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds (a traced run splits it into an untraced and a traced half)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "file the traced run's spans are written to (default .bench_build/spans-<workload>.bin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload relay-1k|ingest-256k|scatter-1k, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	opt := options{workload: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, spans: *spans}
	if opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans-"+w.name+".bin")
	}

	printLine(stdout, map[string]any{"fingerprint": fingerprint(opt)})
	var (
		res *result
		err error
	)
	if opt.trace {
		res, err = runTraced(opt, stdout)
	} else {
		res, err = runUntraced(opt, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	printLine(stdout, res)
	return 0
}

func printLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are printed
	}
	fmt.Fprintf(w, "%s\n", b)
}

// fingerprint records what a run's numbers depend on besides the code.
func fingerprint(opt options) map[string]any {
	// A checkout that is not a git repository builds without VCS stamps.
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"workload":   opt.workload.name,
		"seed":       opt.seed,
		"seconds":    opt.window.Seconds(),
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"go":         runtime.Version(),
		"commit":     commit + modified,
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// deployment is one set-up platform and the workload deployed on it.
type deployment struct {
	p   *roadrunner.Platform
	sys system
}

// setUp creates a platform, deploys the workload and warms it up until
// every channel a request reuses is cached; setup_s times it.
func setUp(opt options) (deployment, time.Duration, error) {
	start := time.Now()
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	sys, err := opt.workload.deploy(p, opt.seed)
	if err != nil {
		p.Close()
		return deployment{}, 0, err
	}
	off := &tracer{}
	for i := 0; i < opt.workload.warmup; i++ {
		if err := sys.do(context.Background(), off); err != nil {
			p.Close()
			return deployment{}, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return deployment{p: p, sys: sys}, time.Since(start), nil
}

// sliceTarget is the length a window's slices are cut to.
const sliceTarget = time.Second

// slice is one part of a window. Rates, per-request costs and latency
// percentiles are reported as medians over slices, so that a burst of load
// from outside the benchmark moves a minority of slices, not the result.
type slice struct {
	ok       int64 // requests that passed every check
	requests int64
	elapsed  time.Duration
	cpu      time.Duration
	p50, p90 time.Duration
}

// window is what one timed window of closed-loop requests measured.
type window struct {
	requests, failed, mismatches int64
	firstErr                     error
	lat                          hist // every request, failed ones too
	slices                       []slice
	allocBytes                   uint64
	gcCycles                     uint32
	gcPause                      time.Duration
}

// measure runs requests back to back for dur, or until a traced window's
// span buffer could overflow, cutting the window into slices of about
// sliceTarget.
func measure(d deployment, tr *tracer, dur time.Duration) window {
	w := window{lat: newHist()}
	cur := newHist()
	sliceLen := dur / time.Duration(max(1, int((dur+sliceTarget/2)/sliceTarget)))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	sliceStart, sliceCPU := start, processCPU()
	var sliceReq, sliceOK int64
	for {
		t0 := time.Now()
		done := !t0.Before(deadline) || (tr.on && tr.full())
		// A window cut short by a full span buffer keeps its last slice
		// only when that slice ran at least half its length.
		if t0.Sub(sliceStart) >= sliceLen || (done && t0.Sub(sliceStart) >= sliceLen/2) {
			cpu := processCPU()
			w.slices = append(w.slices, slice{
				ok: sliceOK, requests: w.requests - sliceReq, elapsed: t0.Sub(sliceStart), cpu: cpu - sliceCPU,
				p50: cur.quantile(0.50), p90: cur.quantile(0.90),
			})
			cur.reset()
			sliceStart, sliceCPU, sliceReq, sliceOK = t0, cpu, w.requests, 0
		}
		if done {
			break
		}
		tr.openRequest()
		err := d.sys.do(ctx, tr)
		tr.closeRequest()
		lat := time.Since(t0)
		w.lat.record(lat)
		cur.record(lat)
		w.requests++
		if err == nil {
			sliceOK++
			continue
		}
		w.failed++
		if errors.Is(err, errMismatch) {
			w.mismatches++
		}
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
	runtime.ReadMemStats(&ms1)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return w
}

// sliceMedian is the median over the window's slices of f.
func (w window) sliceMedian(f func(s slice) float64) float64 {
	vals := make([]float64, len(w.slices))
	for i, s := range w.slices {
		vals[i] = f(s)
	}
	return median(vals)
}

// rps is the median rate of verified requests per second.
func (w window) rps() float64 {
	return w.sliceMedian(func(s slice) float64 { return ratio(float64(s.ok), s.elapsed.Seconds()) })
}

func (w window) perRequest(v float64) float64 { return ratio(v, float64(w.requests)) }

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// checkConservation fails a run that leaked or skipped work: every replica
// idle, every scheduled task completed, and no source shim caching more
// channels than its cache holds.
func checkConservation(d deployment) error {
	for _, f := range d.sys.functions() {
		for _, inst := range f.Instances() {
			if n := inst.InFlight(); n != 0 {
				return fmt.Errorf("conservation: %s has %d invocations in flight", inst.Name(), n)
			}
		}
	}
	if st := d.p.SchedulerStats(); st.Submitted != st.Completed {
		return fmt.Errorf("conservation: scheduler submitted %d tasks, completed %d", st.Submitted, st.Completed)
	}
	var vms []*roadrunner.Instance
	for _, inst := range d.sys.sources() {
		if !slices.ContainsFunc(vms, inst.SharesVMWith) {
			vms = append(vms, inst)
		}
	}
	if a := d.p.ChannelStats().Active; a > channelCap*len(vms) {
		return fmt.Errorf("conservation: %d cached channels across %d source shims (at most %d each)", a, len(vms), channelCap)
	}
	return nil
}

// summarize prints the run's detail line: percentiles with their sample
// counts, failures and the first error, and returns the window's outcome.
func summarize(stdout io.Writer, w window, conserveErr error) (correct bool) {
	sum := map[string]any{
		"requests":       w.requests,
		"failed":         w.failed,
		"mismatches":     w.mismatches,
		"fail_ratio":     w.perRequest(float64(w.failed)),
		"slices":         len(w.slices),
		"p50_us":         us(w.lat.quantile(0.50)),
		"p90_us":         us(w.lat.quantile(0.90)),
		"p99_us":         us(w.lat.quantile(0.99)),
		"samples":        w.lat.n,
		"samples_gt_p90": w.lat.beyond(0.90),
		"samples_gt_p99": w.lat.beyond(0.99),
		"conservation":   "ok",
	}
	if w.firstErr != nil {
		sum["first_error"] = w.firstErr.Error()
	}
	if conserveErr != nil {
		sum["conservation"] = conserveErr.Error()
	}
	printLine(stdout, map[string]any{"summary": sum})
	return w.mismatches == 0 && conserveErr == nil
}

// runUntraced sets up setupRuns times, then times one window on the last
// deployment and reports the end-to-end metrics.
func runUntraced(opt options, stdout io.Writer) (*result, error) {
	var (
		d      deployment
		setups []time.Duration
	)
	for i := 0; i < setupRuns; i++ {
		if d.p != nil {
			d.p.Close()
			runtime.GC()
		}
		var (
			took time.Duration
			err  error
		)
		if d, took, err = setUp(opt); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
	}
	defer d.p.Close()
	slices.Sort(setups)

	w := measure(d, &tracer{}, opt.window)
	correct := summarize(stdout, w, checkConservation(d))
	return &result{
		Correct:   correct,
		Attempted: w.requests,
		Failed:    w.failed,
		Metrics: map[string]metric{
			"setup_s":          {setups[len(setups)/2].Seconds(), "s"},
			"throughput_rps":   {w.rps(), "1/s"},
			"latency_p50_us":   {w.sliceMedian(func(s slice) float64 { return us(s.p50) }), "us"},
			"latency_p90_us":   {w.sliceMedian(func(s slice) float64 { return us(s.p90) }), "us"},
			"cpu_us_per_req":   {w.sliceMedian(func(s slice) float64 { return ratio(us(s.cpu), float64(s.requests)) }), "us"},
			"alloc_kb_per_req": {w.perRequest(float64(w.allocBytes) / 1024), "KiB"},
			"peak_rss_mb":      {peakRSSBytes() / (1 << 20), "MiB"},
		},
	}, nil
}

// counters snapshots the platform's exact counters around a traced window.
type counters struct {
	ch          roadrunner.ChannelStats
	sched       int64
	invocations [][]int64 // per replicated function, per replica
}

func snapshot(d deployment) counters {
	c := counters{ch: d.p.ChannelStats(), sched: d.p.SchedulerStats().Submitted}
	for _, f := range d.sys.functions() {
		if f.Replicas() < 2 {
			continue
		}
		var per []int64
		for _, ia := range f.Report().Instances {
			per = append(per, ia.Invocations)
		}
		c.invocations = append(c.invocations, per)
	}
	return c
}

// replicaSkew is the largest ratio, over replicated functions, of the
// busiest replica's invocations to the pool mean between two snapshots; 0
// when the workload deploys no replicated function.
func replicaSkew(before, after counters) float64 {
	skew := 0.0
	for i := range after.invocations {
		var top, total int64
		for r, n := range after.invocations[i] {
			delta := n - before.invocations[i][r]
			top = max(top, delta)
			total += delta
		}
		skew = max(skew, ratio(float64(top), float64(total)/float64(len(after.invocations[i]))))
	}
	return skew
}

// runTraced sets up once, times an untraced half window (throughput and Go
// runtime counters), then a traced half window, and derives the per-layer
// metrics from the traced half's spans and counter deltas.
func runTraced(opt options, stdout io.Writer) (*result, error) {
	d, _, err := setUp(opt)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.p.Close()

	plain := measure(d, &tracer{}, opt.window/2)
	// The span buffer is allocated after the untraced half, so that the GC
	// counters it reports are not paced by a heap the program did not make.
	tr := newTracer(traceSpans)
	before := snapshot(d)
	traced := measure(d, tr, opt.window/2)
	after := snapshot(d)
	conserveErr := checkConservation(d)

	all := plain
	all.requests += traced.requests
	all.failed += traced.failed
	all.mismatches += traced.mismatches
	all.lat = newHist()
	all.lat.add(&plain.lat)
	all.lat.add(&traced.lat)
	if all.firstErr == nil {
		all.firstErr = traced.firstErr
	}
	correct := summarize(stdout, all, conserveErr)
	if err := tr.writeSpans(opt.spans); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}

	tot := tr.totals()
	n := float64(tot.requests)
	perReq := func(names ...spanName) float64 {
		var sum time.Duration
		for _, s := range names {
			sum += tot.byName[s]
		}
		return ratio(us(sum), n)
	}
	share := func(names ...spanName) float64 {
		return ratio(perReq(names...), perReq(spanRequest))
	}
	wasm := []spanName{spanProduce, spanOutput, spanConsume, spanRelease}
	core := []spanName{spanXferUser, spanXferKernel, spanXferNetwork, spanXferOther}
	plan := []spanName{spanPlanBuild, spanPlanSubmit, spanPlanWait}
	guestTime := tot.byName[spanProduce] + tot.byName[spanConsume]
	dHits := float64(after.ch.Hits - before.ch.Hits)
	dMisses := float64(after.ch.Misses - before.ch.Misses)
	deliveries := float64(tr.deliveries)

	return &result{
		Correct:   correct,
		Attempted: all.requests,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"wasm.produce_us":                  {perReq(spanProduce), "us"},
			"wasm.consume_us":                  {perReq(spanConsume), "us"},
			"wasm.release_us":                  {perReq(spanRelease), "us"},
			"wasm.busy_share":                  {share(wasm...), "ratio"},
			"wasm.mb_per_s":                    {ratio(float64(tr.wasmBytes)/1e6, guestTime.Seconds()), "MB/s"},
			"core.user_us":                     {perReq(spanXferUser), "us"},
			"core.kernel_us":                   {perReq(spanXferKernel), "us"},
			"core.network_us":                  {perReq(spanXferNetwork), "us"},
			"core.busy_share":                  {share(core...), "ratio"},
			"kernel.copy_bytes_per_delivery":   {ratio(float64(tr.copyBytes), deliveries), "B"},
			"kernel.syscalls_per_delivery":     {ratio(float64(tr.syscalls), deliveries), "count"},
			"kernel.ctx_switches_per_delivery": {ratio(float64(tr.ctxSwitches), deliveries), "count"},
			"channels.hit_ratio":               {ratio(dHits, dHits+dMisses), "ratio"},
			"channels.misses_per_req":          {ratio(dMisses, n), "count"},
			"channels.evictions_per_req":       {ratio(float64(after.ch.Evictions-before.ch.Evictions), n), "count"},
			"plan.submit_us":                   {perReq(spanPlanSubmit), "us"},
			"plan.wait_us":                     {perReq(spanPlanWait), "us"},
			"plan.busy_share":                  {share(plan...), "ratio"},
			"sched.tasks_per_req":              {ratio(float64(after.sched-before.sched), n), "count"},
			"invoke.local_ratio":               {ratio(float64(tr.localInvokes), float64(tr.invokes)), "ratio"},
			"invoke.replica_skew":              {replicaSkew(before, after), "ratio"},
			"gc.cycles_per_kreq":               {plain.perRequest(float64(plain.gcCycles)) * 1000, "count"},
			"gc.pause_us_per_req":              {plain.perRequest(us(plain.gcPause)), "us"},
			"bench.gap_us":                     {ratio(us(tot.gap()), n), "us"},
			"trace.overhead_ratio":             {ratio(plain.rps(), traced.rps()), "ratio"},
		},
	}, nil
}
