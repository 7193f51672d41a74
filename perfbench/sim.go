package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/energy"
	"dynamollm/internal/engine"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// The system under test, which every timed phase measures, and the
// paper's baseline, which fluid-week also runs (untimed) as the reference
// for the headline savings.
const (
	system   = "dynamollm"
	baseline = "singlepool"
)

// A workload builds its inputs from scratch at least minSetups times,
// and more, up to maxSetups, until the set-ups have taken setupSeconds
// in all; setup_s is the median. A cheap set-up is noisy from one
// repetition to the next, so it gets more repetitions.
const (
	minSetups    = 9
	maxSetups    = 60
	setupSeconds = 4.0
)

// setupTimes are the CPU seconds of each set-up, in all and by step.
type setupTimes struct {
	total, gen, profile, build []float64
}

// setUp builds a workload's inputs as often as the constants above say,
// and returns the timings with the last set-up's trace, profile
// repository and built value. Each set-up synthesises the trace, builds
// a fresh profile repository and calls build (core.NewLive or
// serve.New). The previous set-up's objects are dropped and the garbage
// collected before each one, so every set-up starts from the same heap.
// The host reference runs between set-ups.
func setUp[T any](tr *tracer, h *hostRef, synth func(parent int32) trace.Trace,
	build func(trc trace.Trace, repo *profile.Repository, parent int32) T) (st setupTimes, trc trace.Trace, repo *profile.Repository, built T) {
	var zero T
	spent := 0.0
	for i := 0; i < minSetups || (i < maxSetups && spent < setupSeconds); i++ {
		trc, repo, built = nil, nil, zero
		runtime.GC()
		t0 := cpuTime()
		id := tr.begin("setup", 0, 0)
		trc = synth(id)
		t1 := cpuTime()
		pid := tr.begin("profile.Repository.Get", id, 0)
		repo = profile.NewRepository(nil)
		repo.Get(model.Llama2_70B, 1)
		tr.end(pid)
		t2 := cpuTime()
		built = build(trc, repo, id)
		t3 := cpuTime()
		tr.end(id)
		st.gen = append(st.gen, (t1 - t0).Seconds())
		st.profile = append(st.profile, (t2 - t1).Seconds())
		st.build = append(st.build, (t3 - t2).Seconds())
		st.total = append(st.total, (t3 - t0).Seconds())
		spent += (t3 - t0).Seconds()
		h.due(t3)
	}
	return st, trc, repo, built
}

// simWorkload is one batch-simulation workload: how it synthesises its
// trace from the seed, the options each system runs under, and the check
// that proves the run exercised the mechanism the workload exists for.
type simWorkload struct {
	name string
	// synth builds the input trace; spans for each trace call hang off
	// parent.
	synth func(seed uint64, tr *tracer, parent int32) trace.Trace
	// options returns one system's options for the trace. It is called
	// once per simulated run, so hooks carrying cursor state are fresh.
	options func(system string, seed uint64, tr trace.Trace) core.Options
	// check proves the mechanism ran, given the dynamollm result and the
	// singlepool one (nil unless withBaseline).
	check func(dyn, base *core.Result) error
	// withBaseline runs singlepool on the same trace for the savings.
	withBaseline bool
	// kv is the engine's KV configuration, replayed by the engine probe;
	// nil for fluid fidelity, which runs no engine.
	kv *engine.KVConfig
	// stepJobs overrides Options.StepJobs (the determinism test sets 1).
	stepJobs int
}

// Workload parameters. Each is chosen so the workload's mechanism is hot
// while one timed repetition stays a few host seconds on a small machine.
// kvCapacity is low enough that every seed tried preempts: between 0.3
// and 0.5 some seeds never preempt while others thrash, because
// dynamollm's sharding decides how much KV each instance holds.
const (
	weekDays     = 2    // fluid-week trace length
	weekPeakRPS  = 13.5 // fluid-week weekly-peak arrival rate
	eventPeakRPS = 45   // event workloads' weekly-peak arrival rate
	eventMinutes = 30   // event workloads' window: the second half of the open-source hour
	kvCapacity   = 0.2  // kv-tier: share of the profile KV capacity each engine keeps
	kvShare      = 0.9  // kv-tier: share of requests that reuse a prompt prefix
	kvGroups     = 4    // kv-tier: distinct shared prefixes
	eventJobs    = 2    // event workloads' StepJobs
	faultServers = 1    // event-faults: servers each outage takes down
	faultMinutes = 2    // event-faults: minutes until the servers recover
)

func conversationWarm(peak float64, offset simclock.Time) func(simclock.Time, workload.Class) float64 {
	return func(t simclock.Time, c workload.Class) float64 {
		return trace.ExpectedRate(trace.Conversation, peak, t+offset, c)
	}
}

// serversFor sizes the static fleet for a trace as the repository's
// week-scale experiments do: peak 30-minute demand over a mixed-instance
// capacity, padded for bursts.
func serversFor(tr trace.Trace) int {
	counts := map[int]float64{}
	peak := 0.0
	for _, e := range tr {
		b := int(float64(e.At) / 1800)
		counts[b]++
		if r := counts[b] / 1800; r > peak {
			peak = r
		}
	}
	return max(3, int(peak/4.0*1.25)+1)
}

// eventWindow is the busiest stretch of the open-source hour, the second
// half of its morning ramp, rebased to t = 0.
func eventWindow(seed uint64, tr *tracer, parent int32) trace.Trace {
	id := tr.begin("trace.OpenSourceHour", parent, 0)
	hour := trace.OpenSourceHour(eventPeakRPS, seed)
	tr.end(id)
	from := simclock.Time(simclock.Hour - eventMinutes*simclock.Minute)
	return hour.Window(from, from+simclock.Time(eventMinutes*simclock.Minute))
}

func eventOptions(system string, seed uint64) core.Options {
	o, _ := core.SystemByName(system)
	o.Seed = seed
	o.Fidelity = core.FidelityEvent
	o.StepJobs = eventJobs
	o.WarmLoad = conversationWarm(eventPeakRPS, trace.OpenSourceHourStart+simclock.Time(simclock.Hour-eventMinutes*simclock.Minute))
	return o
}

var workloads = map[string]simWorkload{
	"fluid-week": {
		name:         "fluid-week",
		withBaseline: true,
		synth: func(seed uint64, tr *tracer, parent int32) trace.Trace {
			id := tr.begin("trace.Generate", parent, 0)
			defer tr.end(id)
			return trace.Generate(trace.GenConfig{
				Service:  trace.Conversation,
				Duration: weekDays * simclock.Day,
				PeakRPS:  weekPeakRPS,
				Seed:     seed,
			})
		},
		options: func(system string, seed uint64, tr trace.Trace) core.Options {
			o, _ := core.SystemByName(system)
			o.Seed = seed
			o.Servers = serversFor(tr)
			o.WarmLoad = conversationWarm(weekPeakRPS, 0)
			return o
		},
		check: func(dyn, base *core.Result) error {
			if dyn.Reshards == 0 || dyn.ScaleOuts == 0 || dyn.ScaleIns == 0 {
				return fmt.Errorf("controllers idle: reshards=%d scale_outs=%d scale_ins=%d", dyn.Reshards, dyn.ScaleOuts, dyn.ScaleIns)
			}
			if dyn.EnergyJ >= base.EnergyJ {
				return fmt.Errorf("dynamollm energy %.4g J not below singlepool %.4g J", dyn.EnergyJ, base.EnergyJ)
			}
			return noKVActivity(dyn)
		},
	},
	"event-faults": {
		name:  "event-faults",
		synth: eventWindow,
		options: func(system string, seed uint64, tr trace.Trace) core.Options {
			o := eventOptions(system, seed)
			// Two outages, at a fifth and at three fifths of the window,
			// each recovered faultMinutes later, so the requests on the
			// failed instances go through frontend retry.
			w := simclock.Time(eventMinutes * simclock.Minute)
			d := simclock.Time(faultMinutes * simclock.Minute)
			o.Hook = core.NewTimeline([]core.TimelineEvent{
				{At: w / 5, Do: func(ctl *core.Controls) { ctl.FailServers(faultServers) }},
				{At: w/5 + d, Do: func(ctl *core.Controls) { ctl.RecoverServers(faultServers) }},
				{At: w * 3 / 5, Do: func(ctl *core.Controls) { ctl.FailServers(faultServers) }},
				{At: w*3/5 + d, Do: func(ctl *core.Controls) { ctl.RecoverServers(faultServers) }},
			})
			return o
		},
		check: func(dyn, base *core.Result) error {
			if dyn.Outages == 0 || dyn.Retried == 0 {
				return fmt.Errorf("fault path idle: outages=%d retried=%d", dyn.Outages, dyn.Retried)
			}
			return noKVActivity(dyn)
		},
		kv: &engine.KVConfig{},
	},
	"kv-tier": {
		name: "kv-tier",
		synth: func(seed uint64, tr *tracer, parent int32) trace.Trace {
			base := eventWindow(seed, tr, parent)
			id := tr.begin("trace.GroupPrompts", parent, 0)
			defer tr.end(id)
			return trace.GroupPrompts(0, simclock.Time(eventMinutes*simclock.Minute), kvShare, kvGroups, seed)(base)
		},
		options: func(system string, seed uint64, tr trace.Trace) core.Options {
			o := eventOptions(system, seed)
			o.KVBlockTokens = core.DefaultKVBlockTokens
			o.KVCapacityFactor = kvCapacity
			o.KVPrefixCache = true
			o.KVTier = core.KVTierCPU
			o.KVSwapPolicy = core.KVSwapAuto
			return o
		},
		check: func(dyn, base *core.Result) error {
			if dyn.KVPreemptions == 0 || dyn.KVSwapOuts == 0 || dyn.KVPrefixHits == 0 {
				return fmt.Errorf("KV path idle: preemptions=%d swap_outs=%d prefix_hits=%d", dyn.KVPreemptions, dyn.KVSwapOuts, dyn.KVPrefixHits)
			}
			return nil
		},
		// Mirrors the options above as the event backend configures each
		// engine: a cpu tier of 4x the unscaled capacity at 25 GB/s.
		kv: &engine.KVConfig{
			BlockTokens:        core.DefaultKVBlockTokens,
			CapacityFactor:     kvCapacity,
			PrefixCache:        true,
			TierCapacityFactor: 4,
			TierBytesPerSec:    engine.DefaultTierBytesPerSec,
			SwapPolicy:         engine.SwapAuto,
		},
	},
}

// noKVActivity holds where no KV dynamics are expected: fluid runs have
// no KV state and the legacy token-count path never preempts.
func noKVActivity(r *core.Result) error {
	if r.KVPreemptions+r.KVSwapOuts+r.KVSwapIns+r.KVRecomputes+r.KVTierEvictions+r.KVPrefixHits+r.KVRejected != 0 {
		return fmt.Errorf("unexpected KV activity: preemptions=%d swap_outs=%d prefix_hits=%d rejected=%d",
			r.KVPreemptions, r.KVSwapOuts, r.KVPrefixHits, r.KVRejected)
	}
	return nil
}

// tickClass labels a tick by the controller epochs it crosses, read from
// outside the program: the cluster manager runs on ticks that enter a new
// ClusterEpoch, the pool managers on ticks that enter a new PoolEpoch.
type tickClass int

const (
	tickPlain tickClass = iota
	tickPoolEpoch
	tickClusterEpoch
	numTickClasses
)

var tickClassNames = [numTickClasses]string{"core.tick", "core.tick.pool_epoch", "core.tick.cluster_epoch"}

func classifyTick(k int, o core.Options) tickClass {
	now, prev := float64(k)*o.Tick, float64(k-1)*o.Tick
	switch {
	case k == 0 || int(now/o.ClusterEpoch) != int(prev/o.ClusterEpoch):
		return tickClusterEpoch
	case int(now/o.PoolEpoch) != int(prev/o.PoolEpoch):
		return tickPoolEpoch
	}
	return tickPlain
}

// simRun accumulates one batch workload's measurements.
type simRun struct {
	setup   setupTimes
	finishS []float64
	ticksMs [numTickClasses][]float64
	// timedS is the wall time of the timed phase, host reference
	// included. speeds holds each
	// timed repetition's virtual seconds per CPU second, split by
	// whether the repetition was traced ([0]) or not ([1], the untraced
	// half of a traced run), for the tracing overhead. wallSpeeds holds
	// each repetition's virtual seconds per wall second.
	timedS     float64
	speeds     [2][]float64
	wallSpeeds []float64
	ref        *hostRef
	reps       int
	attempted  int
	failures   []string
	digest     string
	dyn, base  *core.Result
	trace      trace.Trace
	repo       *profile.Repository
}

func (r *simRun) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// minTicks is the fewest timed ticks a run records, so that at least ten
// lie beyond the reported 99th percentile.
const minTicks = 1000

// runSim measures one batch workload. It builds the inputs several
// times (set-up), then runs dynamollm repeatedly on them until the timed
// phase has lasted seconds and recorded at least ticks ticks, then, where
// the workload asks for it, runs the singlepool baseline once, untimed.
// With a tracer, timed repetitions alternate between traced and untraced
// so the overhead of tracing is measured in the same process. Every
// repetition's digest must equal the first's.
func runSim(w simWorkload, seed uint64, seconds float64, ticks int, tr *tracer) *simRun {
	r := &simRun{ref: newHostRef()}
	var live *core.Live
	r.setup, r.trace, r.repo, live = setUp(tr, r.ref, func(parent int32) trace.Trace {
		return w.synth(seed, tr, parent)
	}, func(trc trace.Trace, repo *profile.Repository, parent int32) *core.Live {
		return newLive(w, system, seed, trc, repo, tr, parent)
	})

	var want string // the first repetition's digest
	for rep := 0; ; rep++ {
		rt := tr
		if rep%2 == 1 {
			rt = nil // the untraced half of a traced run
		}
		root := rt.begin("run."+system, 0, 0)
		if rep > 0 {
			live = newLive(w, system, seed, r.trace, r.repo, rt, root)
		}
		// Collect the garbage of set-up and of the previous repetition
		// before timing, so the GC work inside a repetition does not
		// depend on when the last cycle happened to run.
		runtime.GC()
		start := time.Now()
		res, cpu, wall, virtual := r.drive(live, rt, root, true)
		rt.end(root)
		r.timedS += time.Since(start).Seconds()
		half := 0
		if tr != nil && rt == nil {
			half = 1
		}
		r.speeds[half] = append(r.speeds[half], virtual/cpu)
		r.wallSpeeds = append(r.wallSpeeds, virtual/wall)
		r.reps++
		r.attempted++
		if err := res.CheckInvariants(); err != nil {
			r.fail("rep %d %s: %v", rep, system, err)
		}
		if rep == 0 {
			r.dyn, want = res, digest(res)
		} else if d := digest(res); d != want {
			r.fail("rep %d: digest %s differs from rep 0 digest %s", rep, d, want)
		}
		n := len(r.ticksMs[0]) + len(r.ticksMs[1]) + len(r.ticksMs[2])
		if r.timedS >= seconds && n >= ticks {
			break
		}
	}

	results := []*core.Result{r.dyn}
	if w.withBaseline {
		id := tr.begin("run."+baseline, 0, 0)
		r.base, _, _, _ = r.drive(newLive(w, baseline, seed, r.trace, r.repo, tr, id), tr, id, false)
		tr.end(id)
		r.attempted++
		if err := r.base.CheckInvariants(); err != nil {
			r.fail("%s: %v", baseline, err)
		}
		results = append(results, r.base)
	}
	if err := w.check(r.dyn, r.base); err != nil {
		r.fail("%v", err)
	}
	if r.ref.bad > 0 {
		r.fail("host reference: %d bursts gave another checksum", r.ref.bad)
	}
	r.digest = digest(results...)
	return r
}

func newLive(w simWorkload, system string, seed uint64, trc trace.Trace, repo *profile.Repository, tr *tracer, parent int32) *core.Live {
	o := w.options(system, seed, trc)
	if w.stepJobs > 0 {
		o.StepJobs = w.stepJobs
	}
	id := tr.begin("core.NewLive", parent, 0)
	defer tr.end(id)
	return core.NewLive(trc, o, repo)
}

// drive runs one Live to its horizon, one AdvanceTo per tick, then
// Finish, and returns the result with the CPU and wall seconds spent in
// those calls and the virtual seconds they simulated. With timed set,
// each tick's and the Finish's CPU time is recorded, and the host
// reference runs between ticks.
func (r *simRun) drive(live *core.Live, tr *tracer, parent int32, timed bool) (res *core.Result, cpuS, wallS, virtS float64) {
	o := live.Options()
	nTicks := int(live.Result().Duration / o.Tick)
	for k := 0; k < nTicks; k++ {
		cls := classifyTick(k, o)
		target := simclock.Time(float64(k+1) * o.Tick)
		id := tr.begin(tickClassNames[cls], parent, 0)
		w0, t0 := time.Now(), cpuTime()
		live.AdvanceTo(target)
		t1 := cpuTime()
		wallS += time.Since(w0).Seconds()
		tr.end(id)
		cpuS += (t1 - t0).Seconds()
		if timed {
			r.ticksMs[cls] = append(r.ticksMs[cls], float64((t1-t0).Nanoseconds())/1e6)
			r.ref.due(t1)
		}
	}
	id := tr.begin("core.Live.Finish", parent, 0)
	w0, t0 := time.Now(), cpuTime()
	res = live.Finish()
	d := cpuTime() - t0
	wallS += time.Since(w0).Seconds()
	tr.end(id)
	cpuS += d.Seconds()
	if timed {
		r.finishS = append(r.finishS, d.Seconds())
	}
	return res, cpuS, wallS, float64(nTicks) * o.Tick
}

// digest fingerprints the simulated outputs of a set of results: every
// counter and the float aggregates bit for bit. A change meant only to
// speed the simulator up must leave it unchanged.
func digest(results ...*core.Result) string {
	h := sha256.New()
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	for _, r := range results {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d|", r.Requests, r.Completed, r.Squashed, r.Shed, r.SLOMet, r.Retried, r.RetrySuccess, bits(r.SquashedLoad))
		fmt.Fprintf(h, "%x %x %x %x %x|", bits(r.EnergyJ), bits(r.EnergyCostUSD), bits(r.GPUSeconds), bits(r.AvgServers), bits(r.Duration))
		for _, e := range r.EnergyByClassJ {
			fmt.Fprintf(h, "%x ", bits(e))
		}
		fmt.Fprintf(h, "|%d %d %d %d %d %d|", r.Reshards, r.ScaleOuts, r.ScaleIns, r.FreqChanges, r.Emergencies, r.Merges)
		fmt.Fprintf(h, "%d %d %d %d|", r.Outages, r.Recoveries, r.Stragglers, r.Blips)
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d|", r.KVPreemptions, r.KVPrefixHits, r.KVRejected, r.Handoffs, r.KVSwapOuts, r.KVSwapIns, r.KVRecomputes, r.KVTierEvictions)
		fmt.Fprintf(h, "%v %v|", r.ClassRequests, r.ClassViolations)
		for _, d := range resultDists(r) {
			fmt.Fprintf(h, "%d %x %x %x %x|", d.N(), bits(d.Percentile(50)), bits(d.Percentile(99)), bits(d.Mean()), bits(d.Max()))
		}
		for _, p := range r.EnergySeries.Points() {
			fmt.Fprintf(h, "%x:%x ", bits(p.Time), bits(p.Value))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// savings is the paper's headline triple for one pair of runs: energy,
// carbon (energy convolved with the CAISO-like intensity trace) and cost
// (GPU-hours plus electricity), each as percent saved by dyn over base.
func savings(dyn, base *core.Result) (energyPct, carbonPct, costPct float64) {
	carbon := func(r *core.Result) float64 {
		m := energy.NewCarbonMeter(energy.CAISO)
		for _, p := range r.EnergySeries.Points() {
			m.AddEnergy(simclock.Time(p.Time), p.Value)
		}
		return m.Kg()
	}
	bill := func(r *core.Result) float64 { return energy.DefaultCost.Bill(r.GPUSeconds, r.EnergyJ).Total() }
	return 100 * (1 - dyn.EnergyJ/base.EnergyJ),
		100 * (1 - carbon(dyn)/carbon(base)),
		100 * (1 - bill(dyn)/bill(base))
}

// goodput is the share of routed requests that completed within SLO;
// squashed and shed requests count as misses.
func goodput(r *core.Result) float64 { return ratio(float64(r.SLOMet), float64(r.Requests)) }
