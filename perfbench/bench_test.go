package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/serve"
	"dynamollm/internal/trace"
)

// TestDigests pins the determinism contract the benchmark relies on: a
// batch workload's simulated outputs are a function of its seed alone,
// the same across repeats, across StepJobs, and with tracing on.
func TestDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every batch workload")
	}
	const seed = 7
	run := func(w simWorkload, tr *tracer) string {
		t.Helper()
		r := runSim(w, seed, 0, 1, tr)
		if len(r.failures) > 0 {
			t.Fatalf("%s: output checks failed: %v", w.name, r.failures)
		}
		return r.digest
	}
	for _, name := range workloadNames[:3] {
		w := workloads[name]
		if a, b := run(w, nil), run(w, nil); a != b {
			t.Errorf("%s: digest %s on one run, %s on a repeat", name, a, b)
		}
	}
	w := workloads["event-faults"]
	want := run(w, nil)
	serial := w
	serial.stepJobs = 1
	if got := run(serial, nil); got != want {
		t.Errorf("event-faults: digest %s at StepJobs 1, %s at StepJobs %d", got, want, eventJobs)
	}
	if got := run(w, newTracer()); got != want {
		t.Errorf("event-faults: digest %s traced, %s untraced", got, want)
	}
}

// TestResultLine runs serve-live briefly, untraced and traced, and checks
// the last line of output: exactly its four keys, and one metric for each
// declared name, in its unit.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("serves HTTP for a few seconds")
	}
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "serve-live", "--seed", "3", "--seconds", "2", "--trace", traced, "--spans", t.TempDir(), "--src", ".."}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", traced, err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: keys of %s", traced, lines[len(lines)-1])
		}
		if string(res["correct"]) != "true" {
			t.Errorf("trace %s: output checks failed:\n%s", traced, stdout.String())
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or not in %s", traced, d.name, d.unit)
			}
		}
	}
}

// TestBenchmarkJSON keeps the metric and workload lists here in step
// with BENCHMARK.json at the repository root.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, names)
	}
	same := func(kind string, defs []metricDef, spec []struct{ Name, Unit string }) {
		if len(defs) != len(spec) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if d.name != spec[i].Name || d.unit != spec[i].Unit {
				t.Errorf("%s[%d]: %s in %s here, %s in %s in BENCHMARK.json", kind, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

// TestServeSession drives the open-loop ladder, the pacer and the traced
// request spans against a cheap fluid-fidelity session, so the race
// detector can cover the benchmark's own concurrency in seconds.
func TestServeSession(t *testing.T) {
	o := serveOptions(5)
	o.Fidelity = core.FidelityFluid
	sess := serve.New(serve.Config{Name: system, Opts: o, Trace: trace.OpenSourceHour(servePeakRPS, 5), Speed: serveSpeed, Loop: true})
	tr := newTracer()
	sv := serveSession(sess, 5, 5, 50*time.Millisecond, tr)
	if len(sv.failures) > 0 {
		t.Fatalf("checks failed: %v", sv.failures)
	}
	posts, passed := 0, 0
	for i, rr := range sv.lad.steps {
		if rr.errors > 0 {
			t.Errorf("rate %g: %d errors", rr.rate, rr.errors)
		}
		posts += sv.lad.planned[i]
		if rr.meetsLimits {
			passed += sv.lad.planned[i]
		}
	}
	if len(sv.lad.accept) != passed {
		t.Errorf("%d accepted requests timed, want the %d of the steps that met the limits", len(sv.lad.accept), passed)
	}
	if sv.res.Requests < posts+waiters {
		t.Errorf("session routed %d requests, fewer than the %d injected", sv.res.Requests, posts+waiters)
	}
	if sv.lad.maxRPS() < ladderFirst {
		t.Errorf("serve_max_rps %g below the first step on an idle fluid session", sv.lad.maxRPS())
	}
	reqs := map[uint64]int{}
	for _, s := range tr.spans {
		if s.Req != 0 && s.Name != "http.GET /stats" {
			reqs[s.Req]++
		}
	}
	if len(reqs) != posts {
		t.Errorf("%d requests traced, want %d", len(reqs), posts)
	}
	for id, n := range reqs {
		if n != 3 {
			t.Fatalf("request %d has %d spans, want 3", id, n)
		}
	}
}

// TestLadderMaxRPS pins the interpolation of serve_max_rps between the
// last step that met the limits and the one that broke them.
func TestLadderMaxRPS(t *testing.T) {
	l := &ladder{steps: []stepResult{
		{rate: 100, p99: 10, meetsLimits: true},
		{rate: 200, p99: 125, meetsLimits: true},
		{rate: 400, p99: 500},
	}}
	if got := l.maxRPS(); math.Abs(got-200*math.Sqrt2) > 1e-9 {
		t.Errorf("p99 125 ms at 200/s, 500 ms at 400/s: serve_max_rps %g, want %g", got, 200*math.Sqrt2)
	}
	l.steps[2].p99 = 100 // broken by lag or errors alone
	if got := l.maxRPS(); got != 200 {
		t.Errorf("step broken under the latency limit: serve_max_rps %g, want 200", got)
	}
	l.steps = l.steps[:2]
	if got := l.maxRPS(); got != 200 || l.saturated() {
		t.Errorf("no step broken: serve_max_rps %g saturated %v, want the top rate 200", got, l.saturated())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []int64{60, 20, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}
