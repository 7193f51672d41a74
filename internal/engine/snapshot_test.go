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
// restoreSunk.
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

// restoreSunk restores snap onto clk and hands the restored engine a clone
// of src's sink as it stands at the cut, so the restored engine's latency
// stream continues the source's sample for sample. Call it before src
// runs past the cut.
func restoreSunk(snap *Snapshot, clk *simclock.Clock, src *Engine) *Engine {
	e := FromSnapshot(snap, clk)
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
// snapshot an engine mid-run at an arbitrary quiescent instant, restore it
// onto a fresh clock, replay the remaining arrivals — the restored engine
// must finish bit-identical to one that ran uninterrupted, and taking the
// snapshot must not perturb the source engine either.
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
		snap := eng.Snapshot()

		clk2 := simclock.New()
		clk2.RunUntil(cut)
		eng2 := restoreSunk(snap, clk2, eng)
		scheduleFrom(clk2, eng2, reqs, cut)
		clk2.Run()
		if got := engFP(eng2); got != want {
			t.Errorf("cut %v: restored != uninterrupted:\n restored %+v\n want     %+v", cut, got, want)
		}

		// The source keeps running as if nothing happened.
		clk.Run()
		if got := engFP(eng); got != want {
			t.Errorf("cut %v: snapshotting perturbed the source:\n got  %+v\n want %+v", cut, got, want)
		}
	}
}

// TestSnapshotReusable: one snapshot seeds two independent engines; both
// must match, and neither may share mutable state with the other.
func TestSnapshotReusable(t *testing.T) {
	cfg := cfg70(model.TP8, gpu.MaxFreq)
	reqs := snapReqs(30, 3)

	clk := simclock.New()
	eng := sunk(New(cfg, clk))
	scheduleFrom(clk, eng, reqs, -1)
	clk.RunUntil(1.5)
	snap := eng.Snapshot()

	var fps [2]engineFingerprint
	for k := range fps {
		c := simclock.New()
		c.RunUntil(1.5)
		e := restoreSunk(snap, c, eng)
		scheduleFrom(c, e, reqs, 1.5)
		c.Run()
		fps[k] = engFP(e)
	}
	if fps[0] != fps[1] {
		t.Errorf("two restores of one snapshot diverged:\n %+v\n %+v", fps[0], fps[1])
	}
}

// TestSnapshotDuringFreeze: a snapshot taken while the engine is frozen
// (with the iteration start already kicked) must reproduce the scheduled
// start time, not re-derive it from the freeze horizon.
func TestSnapshotDuringFreeze(t *testing.T) {
	cfg := cfg70(model.TP8, gpu.MaxFreq)

	clk := simclock.New()
	eng := sunk(New(cfg, clk))
	eng.Submit(&workload.Request{Arrival: 0, InputTokens: 128, OutputTokens: 8})
	eng.Freeze(5)
	clk.RunUntil(1)
	snap := eng.Snapshot()

	clk2 := simclock.New()
	clk2.RunUntil(1)
	eng2 := restoreSunk(snap, clk2, eng)
	clk2.Run()
	clk.Run()

	got, want := engFP(eng2), engFP(eng)
	if got != want {
		t.Errorf("freeze-time restore diverged:\n restored %+v\n source   %+v", got, want)
	}
	if eng2.Completed != 1 {
		t.Fatalf("restored engine completed %d, want 1", eng2.Completed)
	}
}
