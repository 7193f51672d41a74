package core

import (
	"dynamollm/internal/metrics"
	"dynamollm/internal/model"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// LiveSnapshot is a frozen, self-contained copy of a live simulation at a
// tick boundary: cluster topology, controller state, predictor and RNG
// positions, result aggregates, and — under FidelityEvent — every
// instance engine's queues, KV state, energy meter, and in-flight
// iteration. Resume forks a fresh Live from it; the snapshot itself is
// immutable, so one snapshot can seed any number of forks while the
// original session keeps running, and a fork advanced over the same
// arrivals produces results bit-identical to the original advanced
// uninterrupted.
//
// Two callback fields are shared by reference rather than deep-copied:
// Options.Hook and Options.Observer. A stateful hook (scenario Timeline)
// or observer must not serve a fork and the original at once — either
// install per-fork instances on the resumed run or call Headless first
// (the serving session's Checkpoint does the latter).
type LiveSnapshot struct {
	sm       *simulation
	ticks    int
	finished bool
}

// Snapshot captures the live simulation's full state. Valid between
// AdvanceTo calls (the simulation sits at a whole-tick boundary there —
// every engine is quiescent and all shared accounting is settled).
func (l *Live) Snapshot() *LiveSnapshot {
	return &LiveSnapshot{sm: cloneSimulation(l.sm), ticks: l.ticks, finished: l.finished}
}

// Ticks reports the number of completed ticks the snapshot captured.
func (s *LiveSnapshot) Ticks() int { return s.ticks }

// Boundary returns the virtual time the snapshot was taken at.
func (s *LiveSnapshot) Boundary() simclock.Time {
	return simclock.Time(float64(s.ticks) * s.sm.opts.Tick)
}

// Headless strips the shared tick hook and request observer from the
// snapshot (in place; returns the receiver for chaining), so forks resume
// without the original session's callbacks. Use it whenever the hook or
// observer carries per-run state that the original run is still driving.
func (s *LiveSnapshot) Headless() *LiveSnapshot {
	scrubCallbacks(s.sm)
	return s
}

// Resume forks a new Live from the snapshot. The fork owns all of its
// state: advancing it never perturbs the snapshot or any other fork.
func (s *LiveSnapshot) Resume() *Live {
	return &Live{sm: cloneSimulation(s.sm), ticks: s.ticks, finished: s.finished}
}

// scrubCallbacks clears the by-reference callback fields in every copy of
// the options a simulation holds.
func scrubCallbacks(sm *simulation) {
	sm.opts.Hook, sm.opts.Observer = nil, nil
	sm.s.opts.Hook, sm.s.opts.Observer = nil, nil
	sm.c.opts.Hook, sm.c.opts.Observer = nil, nil
	sm.res.Opts.Hook, sm.res.Opts.Observer = nil, nil
}

// cloneSimulation deep-copies a simulation at a tick boundary. Everything
// mutable is copied; immutable structures (the profile, the pooling map,
// model catalogs) are shared. The shared capacity/steady caches are NOT
// copied — the clone starts with empty caches, which is behaviourally
// identical because cache values are pure deterministic functions of
// their keys; recomputation yields the same bits.
func cloneSimulation(sm *simulation) *simulation {
	s := sm.s

	rng := *s.rng
	ns := &sharedState{
		opts:        s.opts,
		prof:        s.prof, // immutable after profiling
		loadPred:    s.loadPred.Clone(),
		lenPred:     s.lenPred.Clone(),
		rng:         &rng,
		nextID:      s.nextID,
		curTick:     s.curTick,
		priceMult:   s.priceMult,
		sloMult:     s.sloMult,
		submitDelay: s.submitDelay,
	}

	c := sm.c
	nc := &Cluster{
		opts:            c.opts,
		shared:          ns,
		pooling:         c.pooling, // immutable after construction
		tracked:         c.tracked,
		retiredFreqSets: c.retiredFreqSets,
	}
	instMap := make(map[*Instance]*Instance)
	nc.pools = make([]*Pool, len(c.pools))
	for i, p := range c.pools {
		np := &Pool{}
		*np = *p // Classes aliases the immutable pooling tables: share
		np.Instances = make([]*Instance, len(p.Instances))
		for j, in := range p.Instances {
			np.Instances[j] = cloneInstance(in)
			instMap[in] = np.Instances[j]
		}
		nc.pools[i] = np
	}

	nr := cloneResult(sm.res)

	nsm := &simulation{
		c:                nc,
		s:                ns,
		res:              nr,
		tr:               append(trace.Trace(nil), sm.tr...),
		opts:             sm.opts,
		nTicks:           sm.nTicks,
		idx:              sm.idx,
		lastPoolEpoch:    sm.lastPoolEpoch,
		lastClusterEpoch: sm.lastClusterEpoch,
		injected:         append([]trace.Entry(nil), sm.injected...),
		injIdx:           sm.injIdx,
		arrivals:         sm.arrivals,
		retryQ:           append([]retryEntry(nil), sm.retryQ...),
		ctl: &Controls{
			c: nc, s: ns, res: nr,
			failedGPUs: append([]int(nil), sm.ctl.failedGPUs...),
		},
		// Tick-scoped scratch: stale outside a step; fresh storage sized
		// like reserve() so the clone's steady state does not re-grow it.
		assigns: make([]assign, len(sm.assigns)),
		reqs:    make([]workload.Request, 0, cap(sm.reqs)),
	}

	if eb, ok := s.backend.(*eventBackend); ok {
		ns.backend = eb.cloneFor(nc, nr, instMap)
	} else {
		ns.backend = &fluidBackend{res: nr}
	}
	ns.backend.bind(nsm)
	return nsm
}

// cloneInstance copies one instance. The memoized capacity/steady/marginal
// caches are value state keyed by cloned inputs, so they stay valid;
// marginalEntryC points into the shared immutable profile.
func cloneInstance(in *Instance) *Instance {
	ni := &Instance{}
	*ni = *in
	ni.freqCtl = in.freqCtl.Clone()
	return ni
}

// cloneFor copies the event backend's state onto a cloned cluster: each
// live engine is cloned onto a fresh clock (private normally, one shared
// clock per pool group under disaggregation), in-flight KV transfers are
// re-scheduled against the cloned engines, and undelivered submissions
// are remapped to the cloned instances.
func (b *eventBackend) cloneFor(nc *Cluster, nr *Result, instMap map[*Instance]*Instance) *eventBackend {
	nb := newEventBackend(nc, nr)
	nb.now = b.now
	if n := len(b.groupClocks); n > 0 {
		nb.groupClocks = make([]*simclock.Clock, n)
		for gi, clk := range b.groupClocks {
			if clk == nil {
				continue
			}
			nclk := simclock.New()
			nclk.RunUntil(b.now)
			nb.groupClocks[gi] = nclk
		}
	}
	nb.engines = make([]*instEngine, len(b.engines))
	for id, ie := range b.engines {
		if ie == nil {
			continue
		}
		var clk *simclock.Clock
		if nc.opts.Disagg {
			clk = nb.groupClocks[ie.pool%nc.pooling.NumPools]
		} else {
			clk = simclock.New()
			clk.RunUntil(b.now)
		}
		nie := &instEngine{
			eng:        ie.eng.Clone(clk),
			clock:      clk,
			pool:       ie.pool,
			lastJ:      ie.lastJ,
			cls:        ie.cls,
			lastPre:    ie.lastPre,
			lastHits:   ie.lastHits,
			lastRej:    ie.lastRej,
			lastHand:   ie.lastHand,
			handoffsIn: ie.handoffsIn,

			lastSwapOut:   ie.lastSwapOut,
			lastSwapIn:    ie.lastSwapIn,
			lastRecomp:    ie.lastRecomp,
			lastTierEvict: ie.lastTierEvict,
		}
		nb.wire(nie)
		nb.engines[id] = nie
		// Re-arm in-flight KV transfers: their arrival events live on the
		// original clock, not in any engine's state, so the clone must
		// re-schedule them (the fork would otherwise silently drop every
		// handoff that was mid-transfer at the cut).
		for _, t := range ie.transfers {
			if t.done {
				continue
			}
			nt := &kvTransfer{at: t.at, req: t.req, ctx: t.ctx}
			nie.transfers = append(nie.transfers, nt)
			te := nie
			clk.At(nt.at, func() {
				if nt.done {
					return
				}
				nt.done = true
				te.eng.SubmitDecode(nt.req, nt.ctx)
			})
		}
	}
	if len(b.pending) > 0 {
		nb.pending = make([]pendingSub, 0, len(b.pending))
		for _, p := range b.pending {
			nin := instMap[p.in]
			if nin == nil {
				// The instance was compacted out of its pool (stateOff)
				// while a submission was still in transit; the old code
				// kept it alive through the closure. Clone the orphan so
				// delivery re-resolves against the cloned pool exactly as
				// the original would.
				nin = cloneInstance(p.in)
				instMap[p.in] = nin
			}
			nb.pending = append(nb.pending, pendingSub{at: p.at, in: nin, req: p.req})
		}
	}
	return nb
}

// cloneResult deep-copies the run aggregates: distributions, series, and
// the per-pool series maps (plain counters ride along in the value copy).
func cloneResult(r *Result) *Result {
	nr := &Result{}
	*nr = *r
	nr.TTFT = r.TTFT.Clone()
	nr.TBT = r.TBT.Clone()
	for i := range r.ClassTTFT {
		if r.ClassTTFT[i] != nil {
			nr.ClassTTFT[i] = r.ClassTTFT[i].Clone()
		}
		if r.ClassTBT[i] != nil {
			nr.ClassTBT[i] = r.ClassTBT[i].Clone()
		}
	}
	nr.ClusterPowerW = r.ClusterPowerW.Clone()
	nr.GPUPowerW = r.GPUPowerW.Clone()
	nr.FreqSeries = r.FreqSeries.Clone()
	nr.EnergySeries = r.EnergySeries.Clone()
	nr.PoolFreqSeries = cloneSeriesByClass(r.PoolFreqSeries)
	nr.PoolLoadSeries = cloneSeriesByClass(r.PoolLoadSeries)
	nr.ShardSeries = cloneSeriesByTP(r.ShardSeries)
	nr.PoolShardSeries = make(map[workload.Class]map[model.TP]*metrics.Series, len(r.PoolShardSeries))
	//dynamolint:order-independent map-to-map rebuild; the result is keyed, not ordered
	for cls, byTP := range r.PoolShardSeries {
		nr.PoolShardSeries[cls] = cloneSeriesByTP(byTP)
	}
	return nr
}

func cloneSeriesByClass(m map[workload.Class]*metrics.Series) map[workload.Class]*metrics.Series {
	out := make(map[workload.Class]*metrics.Series, len(m))
	//dynamolint:order-independent map-to-map rebuild; the result is keyed, not ordered
	for k, s := range m {
		out[k] = s.Clone()
	}
	return out
}

func cloneSeriesByTP(m map[model.TP]*metrics.Series) map[model.TP]*metrics.Series {
	out := make(map[model.TP]*metrics.Series, len(m))
	//dynamolint:order-independent map-to-map rebuild; the result is keyed, not ordered
	for k, s := range m {
		out[k] = s.Clone()
	}
	return out
}
