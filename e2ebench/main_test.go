package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of the repository's BENCHMARK.json the tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs the benchmark in-process and returns its summary and result
// lines.
func runBench(t *testing.T, args ...string) (summary map[string]any, res result) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want fingerprint, summary and result lines, got %q", lines)
	}
	var sum struct {
		Summary map[string]any `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &sum); err != nil || sum.Summary == nil {
		t.Fatalf("summary line %q: %v", lines[1], err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[2]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[2], err)
	}
	return sum.Summary, res
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the result line carries exactly the metrics BENCHMARK.json names,
// each with its unit, that no request failed and that every check passed.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark runs %d workloads", names, len(workloads))
	}
	for _, w := range workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.name+"/trace"+string(rune('0'+trace)), func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.bin")
				sum, res := runBench(t, "--workload", w.name, "--seed", "7", "--seconds", "0.6",
					"--trace", string(rune('0'+trace)), "--spans", spans)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d, summary %v", res.Correct, res.Failed, res.Attempted, sum)
				}
				if sum["fail_ratio"] != 0.0 {
					t.Errorf("fail_ratio = %v", sum["fail_ratio"])
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == 1 {
					checkSpans(t, spans)
				}
			})
		}
	}
}

// checkSpans reads a span dump's header and checks the file holds as many
// records as the header counts.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(spansMagic)) {
		t.Fatalf("span dump starts %q", b[:min(len(b), 8)])
	}
	b = b[len(spansMagic):]
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	names := int(b[0])
	b = b[1:]
	for i := 0; i < names; i++ {
		b = b[1+int(b[0]):]
	}
	const record = 8 + 4 + 4 + 4 + 1
	if n == 0 || uint64(len(b)) != n*record {
		t.Errorf("span dump counts %d spans, holds %d bytes of records", n, len(b))
	}
}

// TestLayerSplit checks that each workload makes its intended layer
// dominant, as README.md predicts.
func TestLayerSplit(t *testing.T) {
	layers := func(name string) map[string]float64 {
		_, res := runBench(t, "--workload", name, "--seconds", "1", "--trace", "1",
			"--spans", filepath.Join(t.TempDir(), "spans.bin"))
		out := map[string]float64{}
		for k, m := range res.Metrics {
			out[k] = m.Value
		}
		return out
	}
	relay, ingest, scatter := layers("relay-1k"), layers("ingest-256k"), layers("scatter-1k")
	for _, c := range []struct {
		what string
		ok   bool
	}{
		{"relay-1k wasm.busy_share <= 0.3", relay["wasm.busy_share"] <= 0.3},
		{"relay-1k core.busy_share >= 0.6", relay["core.busy_share"] >= 0.6},
		{"relay-1k channels.misses_per_req == 0", relay["channels.misses_per_req"] == 0},
		{"ingest-256k wasm.busy_share >= 0.8", ingest["wasm.busy_share"] >= 0.8},
		{"ingest-256k core.busy_share <= 0.1", ingest["core.busy_share"] <= 0.1},
		{"scatter-1k plan.busy_share >= 0.5", scatter["plan.busy_share"] >= 0.5},
		{"scatter-1k channels.misses_per_req > 0", scatter["channels.misses_per_req"] > 0},
		{"scatter-1k sched.tasks_per_req == 5", scatter["sched.tasks_per_req"] == 5},
	} {
		if !c.ok {
			t.Errorf("want %s; relay %v, ingest %v, scatter %v", c.what, relay, ingest, scatter)
		}
	}
}

// TestHistQuantiles compares histogram quantiles with exact nearest-rank
// quantiles of the same samples.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := newHist()
	var samples []time.Duration
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.ExpFloat64()*40e3) + 100
		samples = append(samples, d)
		h.record(d)
	}
	slices.Sort(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		exact := samples[int(q*float64(len(samples))+0.999999999)-1]
		got := h.quantile(q)
		if diff := float64(got-exact) / float64(exact); diff < -0.002 || diff > 0.002 {
			t.Errorf("q%.2f = %v, exact %v", q, got, exact)
		}
	}
	for _, ns := range []int64{0, 1, 511, 512, 513, 1023, 1024, 40_000, 1 << 40, histMax} {
		i := histBucket(ns)
		if v := histValue(i); v < float64(ns)*0.998-1 || v > float64(ns)*1.002+1 {
			t.Errorf("bucket of %d reads %v", ns, v)
		}
	}
}
