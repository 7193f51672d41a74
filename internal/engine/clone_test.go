package engine

import (
	"testing"

	"dynamollm/internal/gpu"
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// engineFingerprint is everything two engines must agree on bit-for-bit to
// count as having lived identical histories.
type engineFingerprint struct {
	Completed, TokensIn, TokensOut int
	QueueLen                       int
	TTFTN, TBTN                    int
	TTFTP99, TBTP99                float64
	EnergyJ                        float64
}

// engFP reads the latency stream from the distSink installed by sunk or
// cloneSunk.
func engFP(e *Engine) engineFingerprint {
	l := lat(e)
	return engineFingerprint{
		Completed: e.Completed, TokensIn: e.TokensIn, TokensOut: e.TokensOut,
		QueueLen: e.QueueLen(),
		TTFTN:    l.ttft.N(), TBTN: l.tbt.N(),
		TTFTP99: l.ttft.Percentile(99), TBTP99: l.tbt.Percentile(99),
		EnergyJ: e.Energy(),
	}
}

// sunk installs a fresh distSink on e, so tests can read the latency
// samples the engine emits.
func sunk(e *Engine) *Engine {
	e.SetSink(&distSink{ttft: metrics.NewDist(), tbt: metrics.NewDist()})
	return e
}

// lat returns the distSink installed on e.
func lat(e *Engine) *distSink { return e.sink.(*distSink) }

// cloneSunk clones src onto clk and hands the clone a copy of src's sink
// as it stands at the cut, so the clone's latency stream continues the
// source's sample for sample.
func cloneSunk(src *Engine, clk *simclock.Clock) *Engine {
	e := src.Clone(clk)
	l := lat(src)
	e.SetSink(&distSink{ttft: l.ttft.Clone(), tbt: l.tbt.Clone()})
	return e
}

func snapReqs(n int, seed uint64) []workload.Request {
	rng := simclock.NewRNG(seed)
	reqs := make([]workload.Request, n)
	at := simclock.Time(0)
	for i := range reqs {
		at += simclock.Time(rng.Float64() * 0.31)
		reqs[i] = workload.Request{
			Arrival:      at,
			InputTokens:  64 + rng.Intn(700),
			OutputTokens: 2 + rng.Intn(120),
		}
	}
	return reqs
}

func scheduleFrom(clk *simclock.Clock, eng *Engine, reqs []workload.Request, after simclock.Time) {
	for i := range reqs {
		r := reqs[i]
		if r.Arrival > after {
			clk.At(r.Arrival, func() { eng.SubmitCopy(r) })
		}
	}
}

// TestSnapshotRestoreMatchesUninterrupted is the round-trip property test:
// clone an engine mid-run at an arbitrary quiescent instant onto a fresh
// clock, replay the remaining arrivals — the clone must finish
// bit-identical to one that ran uninterrupted, and cloning must not
// perturb the source engine either.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	cfg := cfg70(model.TP4, 1600)
	reqs := snapReqs(60, 11)

	refClk := simclock.New()
	ref := sunk(New(cfg, refClk))
	scheduleFrom(refClk, ref, reqs, -1)
	refClk.Run()
	want := engFP(ref)
	if want.Completed != len(reqs) {
		t.Fatalf("reference completed %d of %d", want.Completed, len(reqs))
	}

	// Cut points span: before any arrival fires, mid-prefill churn, deep
	// in steady decode, and near the drain tail.
	for _, cut := range []simclock.Time{0.0005, 0.8, 2.5, 7.3} {
		clk := simclock.New()
		eng := sunk(New(cfg, clk))
		scheduleFrom(clk, eng, reqs, -1)
		clk.RunUntil(cut)

		clk2 := simclock.New()
		clk2.RunUntil(cut)
		eng2 := cloneSunk(eng, clk2)
		scheduleFrom(clk2, eng2, reqs, cut)
		clk2.Run()
		if got := engFP(eng2); got != want {
			t.Errorf("cut %v: clone != uninterrupted:\n clone %+v\n want  %+v", cut, got, want)
		}

		// The source keeps running as if nothing happened.
		clk.Run()
		if got := engFP(eng); got != want {
			t.Errorf("cut %v: cloning perturbed the source:\n got  %+v\n want %+v", cut, got, want)
		}
	}
}

// TestSnapshotReusable: two clones of one source at one cut are
// independent engines; both must match, and neither may share mutable
// state with the other.
func TestSnapshotReusable(t *testing.T) {
	cfg := cfg70(model.TP8, gpu.MaxFreq)
	reqs := snapReqs(30, 3)

	clk := simclock.New()
	eng := sunk(New(cfg, clk))
	scheduleFrom(clk, eng, reqs, -1)
	clk.RunUntil(1.5)

	var clones [2]*Engine
	var clks [2]*simclock.Clock
	for k := range clones {
		clks[k] = simclock.New()
		clks[k].RunUntil(1.5)
		clones[k] = cloneSunk(eng, clks[k])
		scheduleFrom(clks[k], clones[k], reqs, 1.5)
	}
	// Run the clones one after the other: the first must not disturb the
	// second, which has not moved yet.
	var fps [2]engineFingerprint
	for k := range clones {
		clks[k].Run()
		fps[k] = engFP(clones[k])
	}
	if fps[0] != fps[1] {
		t.Errorf("two clones of one source diverged:\n %+v\n %+v", fps[0], fps[1])
	}
}

// TestSnapshotDuringFreeze: a clone taken while the engine is frozen
// (with the iteration start already kicked) must reproduce the scheduled
// start time, not re-derive it from the freeze horizon. Two shapes: the
// freeze holds back the next start after a first iteration ran, and a
// freeze extended after the kick leaves the pending start where it was.
func TestSnapshotDuringFreeze(t *testing.T) {
	cfg := cfg70(model.TP8, gpu.MaxFreq)
	req := workload.Request{Arrival: 0, InputTokens: 128, OutputTokens: 8}
	for _, tc := range []struct {
		name  string
		setup func(*simclock.Clock, *Engine)
	}{
		{"frozen", func(_ *simclock.Clock, eng *Engine) {
			eng.SubmitCopy(req)
			eng.Freeze(5)
		}},
		{"extended", func(clk *simclock.Clock, eng *Engine) {
			eng.Freeze(2)
			eng.SubmitCopy(req) // start kicked at the horizon, 2
			clk.At(0.5, func() { eng.Freeze(5) })
		}},
	} {
		clk := simclock.New()
		eng := sunk(New(cfg, clk))
		tc.setup(clk, eng)
		clk.RunUntil(1)
		if tc.name == "extended" && eng.nextStart >= eng.frozenUntil {
			t.Fatalf("%s: pending start %v not before the freeze horizon %v", tc.name, eng.nextStart, eng.frozenUntil)
		}

		clk2 := simclock.New()
		clk2.RunUntil(1)
		eng2 := cloneSunk(eng, clk2)
		clk2.Run()
		clk.Run()

		got, want := engFP(eng2), engFP(eng)
		if got != want {
			t.Errorf("%s: freeze-time clone diverged:\n clone  %+v\n source %+v", tc.name, got, want)
		}
		if eng2.Completed != 1 {
			t.Fatalf("%s: clone completed %d, want 1", tc.name, eng2.Completed)
		}
	}
}
