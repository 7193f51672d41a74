// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public packages, checks the outputs,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload fluid-week --seed 1 --seconds 20 --trace 0
//
// README.md in this directory says why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"dynamollm/internal/core"
)

// metricDef is one reported metric. The lists below are the ones
// BENCHMARK.json declares; the package test keeps the two in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_speed", "s/s"},
	{"tick_p50_ms", "ms"},
}

// outputs are the run's outputs that also print in the untraced run:
// the first entries of perLayer.
var outputs = perLayer[:15]

var perLayer = []metricDef{
	{"max_rss_mb", "MB"},
	{"energy_kwh", "kWh"},
	{"goodput", "ratio"},
	{"tick_p99_ms", "ms"},
	{"sim_speed_cpu", "s/s"},
	{"sim_speed_wall", "s/s"},
	{"host.ref_ms", "ms"},
	{"ttft_p99_s", "s"},
	{"tbt_p99_s", "s"},
	{"energy_saving_pct", "%"},
	{"carbon_saving_pct", "%"},
	{"cost_saving_pct", "%"},
	{"accept_p50_ms", "ms"},
	{"accept_p99_ms", "ms"},
	{"serve_max_rps", "1/s"},
	{"trace.gen_s", "s"},
	{"profile.build_s", "s"},
	{"core.new_live_s", "s"},
	{"core.tick_plain_ms", "ms"},
	{"core.tick_pool_epoch_ms", "ms"},
	{"core.tick_cluster_epoch_ms", "ms"},
	{"core.finish_s", "s"},
	{"core.requests", "count"},
	{"core.completed", "count"},
	{"core.squashed", "count"},
	{"core.shed", "count"},
	{"core.retried", "count"},
	{"core.retry_success_ratio", "ratio"},
	{"core.reshards", "count"},
	{"core.scale_outs", "count"},
	{"core.scale_ins", "count"},
	{"core.freq_changes", "count"},
	{"core.emergencies", "count"},
	{"engine.preemptions", "count"},
	{"engine.recomputes", "count"},
	{"engine.recompute_ratio", "ratio"},
	{"engine.swap_outs", "count"},
	{"engine.swap_ins", "count"},
	{"engine.swap_in_ratio", "ratio"},
	{"engine.tier_evictions", "count"},
	{"engine.prefix_hits", "count"},
	{"engine.prefix_hit_ratio", "ratio"},
	{"engine.kv_rejected", "count"},
	{"engine.ns_per_token", "ns"},
	{"metrics.samples", "count"},
	{"metrics.samples_per_token", "ratio"},
	{"metrics.add_ns", "ns"},
	{"serve.http_rtt_p50_ms", "ms"},
	{"serve.http_rtt_p99_ms", "ms"},
	{"serve.stats_ms", "ms"},
	{"serve.sim_lag_max_s", "s"},
	{"serve.admission_shed", "count"},
	{"serve.close_drain_s", "s"},
	{"serve.gen_late_p99_ms", "ms"},
	{"go.total_alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// workloadNames lists every workload in BENCHMARK.json order.
var workloadNames = []string{"fluid-week", "event-faults", "kv-tier", "serve-live"}

// outcome is one run's verdict and metric values.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	digest            string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in host seconds")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spanDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	srcRoot := fs.String("src", ".", "repository root, for the version record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *name
	}
	if !known || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames)
		return 2
	}
	// One process per workload, never more threads than CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	mach := machineRecord(*srcRoot)
	mem0 := readMem()
	var out *outcome
	if *name == "serve-live" {
		out = runServeLive(*seed, *seconds, tr, stdout)
	} else {
		out = runSimWorkload(workloads[*name], *seed, *seconds, tr, stdout)
	}
	mem1 := readMem()
	out.layer["max_rss_mb"] = maxRSSMB()
	out.layer["go.total_alloc_mb"] = float64(mem1.totalAlloc-mem0.totalAlloc) / (1 << 20)
	out.layer["go.gc_cycles"] = float64(mem1.numGC - mem0.numGC)
	out.layer["error_rate"] = ratio(float64(out.failed), float64(out.attempted))

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *traced)
	mj, _ := json.Marshal(mach)
	fmt.Fprintf(stdout, "machine %s\n", mj)
	if out.digest != "" {
		fmt.Fprintf(stdout, "digest %s\n", out.digest)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "error_rate %.6g ratio (%d of %d attempted)\n", out.layer["error_rate"], out.failed, out.attempted)
	defs, vals := endToEnd, out.e2e
	if tr == nil {
		// Simulated outputs and tail latencies vary too much from seed
		// to seed for a bound; they print here, and the traced run
		// reports them as per-layer metrics.
		for _, d := range outputs {
			fmt.Fprintf(stdout, "%-28s %16.6g %s\n", d.name, out.layer[d.name], d.unit)
		}
	} else {
		defs, vals = perLayer, out.layer
		if _, err := tr.write(*spanDir, *name, *seed, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runSimWorkload runs a batch workload and derives the metrics.
func runSimWorkload(w simWorkload, seed uint64, seconds float64, tr *tracer, log io.Writer) *outcome {
	r := runSim(w, seed, seconds, minTicks, tr)
	out := newOutcome()
	out.attempted, out.failed, out.failures, out.digest = r.attempted, len(r.failures), r.failures, r.digest
	var ticks []float64
	for _, t := range r.ticksMs {
		ticks = append(ticks, t...)
	}
	speeds := append(append([]float64(nil), r.speeds[0]...), r.speeds[1]...)
	k := r.ref.scale()
	fmt.Fprintf(log, "reps %d ticks %d wall_s %.3f, s/s per CPU s:", r.reps, len(ticks), r.timedS)
	for _, v := range speeds {
		fmt.Fprintf(log, " %.4g", v)
	}
	fmt.Fprintf(log, "; per wall s:")
	for _, v := range r.wallSpeeds {
		fmt.Fprintf(log, " %.4g", v)
	}
	fmt.Fprintln(log)
	logSetups(log, r.setup, len(r.trace))
	logRef(log, r.ref, k)

	e, l := out.e2e, out.layer
	e["setup_s"] = median(r.setup.total) * k
	e["sim_speed"] = median(speeds) / k
	l["sim_speed_cpu"] = median(speeds)
	l["sim_speed_wall"] = median(r.wallSpeeds)
	l["host.ref_ms"] = median(r.ref.times) * 1e3
	tickStats(e, l, ticks, k)
	simulated(l, r.dyn)
	if r.base != nil {
		l["energy_saving_pct"], l["carbon_saving_pct"], l["cost_saving_pct"] = savings(r.dyn, r.base)
	}

	setupLayers(l, r.setup, k)
	l["core.tick_plain_ms"] = median(r.ticksMs[tickPlain]) * k
	l["core.tick_pool_epoch_ms"] = median(r.ticksMs[tickPoolEpoch]) * k
	l["core.tick_cluster_epoch_ms"] = median(r.ticksMs[tickClusterEpoch]) * k
	l["core.finish_s"] = median(r.finishS) * k
	grouped, tokens := 0, 0
	for _, en := range r.trace {
		if en.PromptGroup != 0 {
			grouped++
		}
		tokens += en.OutputTokens
	}
	l["engine.prefix_hit_ratio"] = ratio(float64(r.dyn.KVPrefixHits), float64(grouped))
	sampleStats(l, r.dyn, tokens)
	leafProbes(l, tr, r.trace, w.kv, r.dyn.AvgServers, seed)
	l["trace.overhead_pct"] = 0
	if tr != nil && len(r.speeds[1]) > 0 {
		l["trace.overhead_pct"] = 100 * (median(r.speeds[1])/median(r.speeds[0]) - 1)
	}

	for _, name := range serveLayers {
		l[name] = 0 // served only on serve-live
	}
	return out
}

// logSetups prints every set-up's host time, for people.
func logSetups(log io.Writer, st setupTimes, requests int) {
	fmt.Fprintf(log, "setups of a %d-request trace, s:", requests)
	for _, t := range st.total {
		fmt.Fprintf(log, " %.3f", t)
	}
	fmt.Fprintln(log)
}

// logRef prints the host reference's bursts, for people.
func logRef(log io.Writer, h *hostRef, k float64) {
	fmt.Fprintf(log, "host reference: %d bursts, median %.3f ms, quartiles %.3f-%.3f ms; CPU times x %.4f\n",
		len(h.times), median(h.times)*1e3, quantile(h.times, 0.25)*1e3, quantile(h.times, 0.75)*1e3, k)
}

// setupLayers reports the median time of each set-up step, scaled by k
// to reference CPU seconds.
func setupLayers(l map[string]float64, st setupTimes, k float64) {
	l["trace.gen_s"] = median(st.gen) * k
	l["profile.build_s"] = median(st.profile) * k
	l["core.new_live_s"] = median(st.build) * k
}

// tickStats reports the tick timings scaled by k to reference CPU
// time: the median end to end, the 99th percentile for the traced run.
func tickStats(e, l map[string]float64, ticks []float64, k float64) {
	e["tick_p50_ms"] = quantile(ticks, 0.50) * k
	l["tick_p99_ms"] = quantile(ticks, 0.99) * k
}

// simulated reports the simulated outputs of the system under test and
// its counters. The headline savings need the baseline and default to 0.
func simulated(l map[string]float64, r *core.Result) {
	l["energy_kwh"] = r.EnergyKWh()
	l["goodput"] = goodput(r)
	l["ttft_p99_s"] = r.TTFT.Percentile(99)
	l["tbt_p99_s"] = r.TBT.Percentile(99)
	l["energy_saving_pct"], l["carbon_saving_pct"], l["cost_saving_pct"] = 0, 0, 0
	resultCounts(l, r)
}

// sampleStats reports how many histogram samples a result holds, in all
// and per output token served.
func sampleStats(l map[string]float64, r *core.Result, tokens int) {
	samples := 0
	for _, d := range resultDists(r) {
		samples += d.N()
	}
	l["metrics.samples"] = float64(samples)
	l["metrics.samples_per_token"] = ratio(float64(samples), float64(tokens))
}

// resultCounts fills the core and engine counters of a result.
func resultCounts(l map[string]float64, r *core.Result) {
	l["core.requests"] = float64(r.Requests)
	l["core.completed"] = float64(r.Completed)
	l["core.squashed"] = float64(r.Squashed)
	l["core.shed"] = float64(r.Shed)
	l["core.retried"] = float64(r.Retried)
	l["core.retry_success_ratio"] = ratio(float64(r.RetrySuccess), float64(r.Retried))
	l["core.reshards"] = float64(r.Reshards)
	l["core.scale_outs"] = float64(r.ScaleOuts)
	l["core.scale_ins"] = float64(r.ScaleIns)
	l["core.freq_changes"] = float64(r.FreqChanges)
	l["core.emergencies"] = float64(r.Emergencies)
	l["engine.preemptions"] = float64(r.KVPreemptions)
	l["engine.recomputes"] = float64(r.KVRecomputes)
	l["engine.recompute_ratio"] = ratio(float64(r.KVRecomputes), float64(r.KVPreemptions))
	l["engine.swap_outs"] = float64(r.KVSwapOuts)
	l["engine.swap_ins"] = float64(r.KVSwapIns)
	l["engine.swap_in_ratio"] = ratio(float64(r.KVSwapIns), float64(r.KVSwapOuts))
	l["engine.tier_evictions"] = float64(r.KVTierEvictions)
	l["engine.prefix_hits"] = float64(r.KVPrefixHits)
	l["engine.kv_rejected"] = float64(r.KVRejected)
}
