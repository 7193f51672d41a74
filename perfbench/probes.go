package main

import (
	"math"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/engine"
	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// resultDists lists a result's latency and power distributions.
func resultDists(r *core.Result) []*metrics.Dist {
	ds := []*metrics.Dist{r.TTFT, r.TBT, r.ClusterPowerW, r.GPUPowerW}
	for i := range r.ClassTTFT {
		ds = append(ds, r.ClassTTFT[i], r.ClassTBT[i])
	}
	out := ds[:0]
	for _, d := range ds {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// leafProbes fills the two leaf-layer probes: engine.ns_per_token (0 when
// the workload runs no engine, kv nil) and metrics.add_ns.
func leafProbes(l map[string]float64, tr *tracer, trc trace.Trace, kv *engine.KVConfig, avgServers float64, seed uint64) {
	l["engine.ns_per_token"] = 0
	if kv != nil {
		id := tr.begin("engine probe", 0, 0)
		l["engine.ns_per_token"] = engineProbe(trc, *kv, max(1, int(avgServers+0.5)), 4000)
		tr.end(id)
	}
	id := tr.begin("metrics.Dist.Add probe", 0, 0)
	l["metrics.add_ns"] = distAddProbe(seed, 1<<20)
	tr.end(id)
}

// engineProbe replays one server's share of the trace (every share-th
// request, capped at maxReqs) through a standalone engine on its own
// virtual clock, TP8 at the top frequency with the workload's KV
// configuration, and returns host nanoseconds per output token.
func engineProbe(tr trace.Trace, kv engine.KVConfig, share, maxReqs int) float64 {
	clock := simclock.New()
	eng := engine.New(perfmodel.Config{Model: model.Llama2_70B, TP: model.TP8, Freq: gpu.MaxFreq}, clock)
	eng.ConfigureKV(kv)
	reqs := make([]workload.Request, 0, maxReqs)
	for i := 0; i < len(tr) && len(reqs) < maxReqs; i += share {
		e := tr[i]
		cls := workload.Classify(e.InputTokens, e.OutputTokens)
		reqs = append(reqs, workload.Request{
			ID:             uint64(len(reqs) + 1),
			Arrival:        e.At,
			InputTokens:    e.InputTokens,
			OutputTokens:   e.OutputTokens,
			PromptGroup:    e.PromptGroup,
			PredictedClass: cls,
			SLOScale:       1,
		})
	}
	for i := range reqs {
		req := &reqs[i]
		clock.At(req.Arrival, func() { eng.Submit(req) })
	}
	t0 := time.Now()
	clock.Run()
	d := time.Since(t0)
	if eng.TokensOut == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(eng.TokensOut)
}

// distAddProbe times metrics.Dist.Add over a seeded log-normal latency
// stream shaped like token gaps (median ~40 ms) and returns ns per Add.
func distAddProbe(seed uint64, n int) float64 {
	rng := simclock.NewRNG(seed ^ 0xD157)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.LogNorm(math.Log(0.04), 0.6)
	}
	d := metrics.NewDist()
	t0 := time.Now()
	for _, x := range xs {
		d.Add(x)
	}
	el := time.Since(t0)
	if d.N() != n {
		return 0
	}
	return float64(el.Nanoseconds()) / float64(n)
}
