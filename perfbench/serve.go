package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/engine"
	"dynamollm/internal/profile"
	"dynamollm/internal/serve"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// serve-live runs cmd/dynamoserve's defaults in process: dynamollm at
// event fidelity over the looping open-source hour at weekly peak 45,
// paced at 60 virtual seconds per wall second.
const (
	servePeakRPS = 45
	serveSpeed   = 60
	// statsEvery is the period of the generator's GET /stats.
	statsEvery = 250 * time.Millisecond
	// acceptLimitMs is the accept p99 a ladder step must stay under.
	acceptLimitMs = 250
	// lagLimitS bounds the simulation's lag behind the pacer, in virtual
	// seconds (two ticks). A step breaks it when two /stats readings in
	// a row are over it: a backlog that persists, not one slow tick.
	lagLimitS = 10
	// waiters is how many blocking requests a session gets just before
	// Close, whose completions Close must deliver.
	waiters = 8
	// catchUpShare is the share of --seconds that serve-live spends
	// running its session unpaced, tick by tick, before the ladder, for
	// sim_speed and tick_p50_ms.
	catchUpShare = 0.5
	// catchUpChunks is how many equal parts of host time the catch-up
	// is cut into; sim_speed is their median speed, as the batch
	// workloads report the median over repetitions.
	catchUpChunks = 8
)

// The ladder offers open-loop load in steps of equal length at rising
// rates: ladderFirst requests per wall second, then ladderRatio times the
// previous rate, for at most ladderSteps steps. It ends with the first
// step that breaks a limit.
const (
	ladderFirst = 100.0
	ladderRatio = math.Sqrt2
	ladderSteps = 14
)

func stepRate(i int) float64 { return ladderFirst * math.Pow(ladderRatio, float64(i)) }

// job is one scheduled client call: a POST /request, or a GET /stats
// when stats is set. Results are written by the one worker that ran it.
type job struct {
	id      uint64
	step    int
	due     time.Duration // offset from the ladder's start
	stats   bool
	in, out int
	handed  bool          // the generator handed it to a worker
	late    time.Duration // how late the generator handed it over
	sent    time.Time
	done    time.Time
	ok      bool
	lag     float64 // sim_lag_virtual_s from /stats
}

// stepResult is the verdict on one ladder step.
type stepResult struct {
	rate         float64
	sent, errors int     // calls handed over, POST and GET
	p50, p99     float64 // accept latency, ms
	served       float64 // successful requests completed per second of the step
	lagMax       float64
	meetsLimits  bool
}

// ladder is one open-loop run up the rate steps.
type ladder struct {
	jobs   []job
	steps  []stepResult
	start  time.Time
	step   time.Duration
	accept []float64 // ms, every request of the steps that met every limit

	// What the generator watches to stop at the first broken limit:
	// per step, the planned requests and those over the accept limit,
	// and how many /stats readings in a row were over the lag limit.
	planned []int
	over    []atomic.Int32
	lagRun  atomic.Int32
}

// schedule draws the ladder's calls from the seed: in each step, exactly
// rate x step arrivals placed uniformly at random (a Poisson process
// conditioned on its count, so the offered load does not vary with the
// seed), request sizes from the open-source hour's class mix, and a
// GET /stats every statsEvery, all merged in due order.
func schedule(seed uint64, step time.Duration) *ladder {
	rng := simclock.NewRNG(seed ^ 0x5E7E)
	weights := trace.ProfileFor(trace.Conversation).ClassWeights(trace.OpenSourceHourStart)
	l := &ladder{step: step, planned: make([]int, ladderSteps), over: make([]atomic.Int32, ladderSteps)}
	for i := 0; i < ladderSteps; i++ {
		from := time.Duration(i) * step
		n := int(stepRate(i) * step.Seconds())
		l.planned[i] = n
		for k := 0; k < n; k++ {
			t := from + time.Duration(rng.Float64()*float64(step))
			in, out := trace.SampleLengths(rng, workload.Class(rng.Pick(weights)))
			l.jobs = append(l.jobs, job{step: i, due: t, in: in, out: out})
		}
		for t := from; t < from+step; t += statsEvery {
			l.jobs = append(l.jobs, job{step: i, due: t, stats: true})
		}
	}
	sort.SliceStable(l.jobs, func(a, b int) bool { return l.jobs[a].due < l.jobs[b].due })
	for i := range l.jobs {
		l.jobs[i].id = uint64(i + 1)
	}
	return l
}

// broken reports whether a step before i has broken a limit: more than
// 1% of its requests over the accept limit, so its p99 is over it, or
// the simulation lagging in two /stats readings in a row.
func (l *ladder) broken(i int) bool {
	for k := 0; k < i; k++ {
		if int(l.over[k].Load()) > l.planned[k]/100 {
			return true
		}
	}
	return l.lagRun.Load() >= 2
}

// run drives the handler open-loop: one generator goroutine hands each
// call over at its due instant, whatever the state of earlier calls, to
// nproc workers, each holding at most one connection. It stops at the
// end of the first step that breaks a limit. A call is timed from its due instant, so a stall is
// charged to every call it delays.
func (l *ladder) run(url string, tr *tracer) {
	conns := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	// The queue holds every call of the run, so the generator never
	// blocks on slow workers: that would turn the open loop closed.
	queue := make(chan *job, len(l.jobs))
	l.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for j := range queue {
				call(client, url, j)
				switch {
				case j.stats && j.lag > lagLimitS:
					l.lagRun.Add(1)
				case j.stats:
					l.lagRun.Store(0)
				case j.done.Sub(l.start.Add(j.due)) > acceptLimitMs*time.Millisecond:
					l.over[j.step].Add(1)
				}
			}
		}()
	}
	for i := range l.jobs {
		j := &l.jobs[i]
		due := l.start.Add(j.due)
		time.Sleep(time.Until(due))
		if l.broken(j.step) {
			break
		}
		j.late = time.Since(due)
		j.handed = true
		queue <- j
	}
	close(queue)
	wg.Wait()

	for i := range l.jobs {
		j := &l.jobs[i]
		if !j.handed {
			continue
		}
		if j.stats {
			tr.record("http.GET /stats", 0, j.id, j.sent, j.done)
			continue
		}
		root := tr.record("serve.request", 0, j.id, l.start.Add(j.due), j.done)
		tr.record("client.queue", root, j.id, l.start.Add(j.due), j.sent)
		tr.record("http.POST /request", root, j.id, j.sent, j.done)
	}
	l.verdicts()
}

// call runs one job and stores its outcome in it.
func call(client *http.Client, url string, j *job) {
	j.sent = time.Now()
	var resp *http.Response
	var err error
	if j.stats {
		resp, err = client.Get(url + "/stats")
	} else {
		body := fmt.Sprintf(`{"input_tokens":%d,"output_tokens":%d}`, j.in, j.out)
		resp, err = client.Post(url+"/request?wait=0", "application/json", bytes.NewBufferString(body))
	}
	if err != nil {
		j.done = time.Now()
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.done = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	if j.stats {
		var st serve.Stats
		j.ok = json.Unmarshal(b, &st) == nil
		j.lag = st.SimLagSeconds
		return
	}
	var acc struct {
		Tag uint64 `json:"tag"`
	}
	j.ok = json.Unmarshal(b, &acc) == nil && acc.Tag != 0
}

// verdicts summarises each step the generator reached. served counts
// the requests that completed during the step, whichever step they
// belong to.
func (l *ladder) verdicts() {
	last := -1
	for _, j := range l.jobs {
		if j.handed {
			last = max(last, j.step)
		}
	}
	for i := 0; i <= last; i++ {
		from := l.start.Add(time.Duration(i) * l.step)
		to := from.Add(l.step)
		rr := stepResult{rate: stepRate(i)}
		var ms []float64
		lagRun, completed := 0, 0
		for _, j := range l.jobs {
			if j.ok && !j.stats && !j.done.Before(from) && j.done.Before(to) {
				completed++
			}
			if j.step != i || !j.handed {
				continue
			}
			rr.sent++
			if !j.ok {
				rr.errors++
				continue
			}
			if j.stats {
				rr.lagMax = math.Max(rr.lagMax, j.lag)
				if j.lag > lagLimitS {
					lagRun++
				} else if lagRun < 2 {
					lagRun = 0
				}
				continue
			}
			ms = append(ms, float64(j.done.Sub(l.start.Add(j.due)).Nanoseconds())/1e6)
		}
		rr.p50, rr.p99 = quantile(ms, 0.5), quantile(ms, 0.99)
		rr.served = float64(completed) / l.step.Seconds()
		rr.meetsLimits = rr.errors == 0 && rr.p99 < acceptLimitMs && lagRun < 2
		if rr.meetsLimits {
			l.accept = append(l.accept, ms...)
		}
		l.steps = append(l.steps, rr)
	}
}

// maxRPS is the offered rate at which the accept p99 reaches the limit,
// interpolated between the last step that met every limit and the step
// that broke one, linearly in log rate against log p99. A step broken by
// errors or lag alone, with its p99 under the limit, gives the last
// passing rate. With no step broken it is the top rate, a lower bound,
// and with none passing it is 0.
func (l *ladder) maxRPS() float64 {
	for i, rr := range l.steps {
		if rr.meetsLimits {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := l.steps[i-1]
		if rr.p99 <= acceptLimitMs || lo.p99 <= 0 {
			return lo.rate
		}
		x := math.Log(acceptLimitMs/lo.p99) / math.Log(rr.p99/lo.p99)
		return lo.rate * math.Pow(rr.rate/lo.rate, x)
	}
	if len(l.steps) == 0 {
		return 0
	}
	return l.steps[len(l.steps)-1].rate
}

// saturated reports whether some step broke a limit, so that maxRPS
// was measured at the limit rather than capped by the top rate.
func (l *ladder) saturated() bool {
	for _, rr := range l.steps {
		if !rr.meetsLimits {
			return true
		}
	}
	return false
}

// benchClock is a session's wall clock. Frozen, it stands still and
// moves only when stepped, so the session runs unpaced, tick by tick;
// running, it advances with the host clock from where it stood.
type benchClock struct {
	mu     sync.Mutex
	frozen bool
	at     time.Time     // the instant while frozen
	shift  time.Duration // added to the host clock while running
}

func newBenchClock(frozen bool) *benchClock { return &benchClock{frozen: frozen, at: time.Now()} }

func (c *benchClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return c.at
	}
	return time.Now().Add(c.shift)
}

func (c *benchClock) stepBy(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

func (c *benchClock) run() {
	c.mu.Lock()
	c.shift, c.frozen = c.at.Sub(time.Now()), false
	c.mu.Unlock()
}

// caughtUp is the outcome of a session's unpaced catch-up.
type caughtUp struct {
	tickMs    []float64 // CPU ms per tick, one entry per Advance that ran ticks
	ticks     int
	speed     float64 // median over the chunks of virtual seconds per CPU second of Advance
	wallSpeed float64 // virtual seconds per wall second of Advance
	tickS     float64 // virtual seconds per tick
	virtual   float64
}

// catchUp runs a fresh session on its frozen clock until its advances
// have taken spend of CPU time, stepping the clock one virtual second
// at a time and timing every Advance, so the live session's tick cost is
// measured unpaced.
func catchUp(sess *serve.Session, clk *benchClock, spend time.Duration, tr *tracer, h *hostRef) caughtUp {
	var cu caughtUp
	var host time.Duration
	spend = max(spend, time.Millisecond)
	var chunkTicks [catchUpChunks]int
	var chunkHost [catchUpChunks]time.Duration
	var wall time.Duration
	for host < spend || cu.ticks == 0 {
		clk.stepBy(time.Second / serveSpeed)
		t0, c0 := time.Now(), cpuTime()
		k := sess.Advance()
		t1, c1 := time.Now(), cpuTime()
		d := c1 - c0
		wall += t1.Sub(t0)
		c := min(int(host*catchUpChunks/spend), catchUpChunks-1)
		host += d
		chunkTicks[c] += k
		chunkHost[c] += d
		if k > 0 {
			tr.record("serve.Session.Advance", 0, 0, t0, t1)
			cu.tickMs = append(cu.tickMs, float64(d.Nanoseconds())/1e6/float64(k))
			cu.ticks += k
		}
		h.due(c1)
	}
	// The clock is frozen, so Stats advances no further.
	cu.virtual = sess.Stats().VirtualSeconds
	cu.tickS = cu.virtual / float64(cu.ticks)
	var speeds []float64
	for c, n := range chunkTicks {
		if n > 0 {
			speeds = append(speeds, float64(n)*cu.tickS/chunkHost[c].Seconds())
		}
	}
	cu.speed = median(speeds)
	cu.wallSpeed = cu.virtual / wall.Seconds()
	return cu
}

// pacer runs the session's pacing as Session.Start does, an Advance
// every half tick of wall time clamped to 5-250 ms, but from outside, so
// the ticks it runs rather than a request are timed and traced.
type pacer struct {
	stop  chan struct{}
	done  chan struct{}
	ticks int
}

func startPacer(s *serve.Session, tickS float64, tr *tracer) *pacer {
	every := min(max(time.Duration(tickS/2/serveSpeed*float64(time.Second)), 5*time.Millisecond), 250*time.Millisecond)
	p := &pacer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				t0 := time.Now()
				if n := s.Advance(); n > 0 {
					tr.record("serve.Session.Advance", 0, 0, t0, time.Now())
					p.ticks += n
				}
			}
		}
	}()
	return p
}

// halt stops the pacer and waits for its goroutine to exit.
func (p *pacer) halt() {
	close(p.stop)
	<-p.done
}

// served is the outcome of serving one session: the ladder, the pacer,
// and the close.
type served struct {
	lad        *ladder
	pacerTicks int
	wallS      float64
	traceCost  time.Duration // tracer time inside the ladder
	final      serve.Stats
	res        *core.Result
	closeS     float64
	failures   []string
}

func (r *served) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// serveSession puts the session behind serve.NewHandler on a loopback
// listener, paces it, drives the open-loop ladder against it with steps
// of the given length, then closes it with a few blocking requests in
// flight, all of which Close must resolve.
func serveSession(sess *serve.Session, seed uint64, tickS float64, step time.Duration, tr *tracer) *served {
	r := &served{lad: schedule(seed, step)}
	srv := httptest.NewServer(serve.NewHandler(sess, serve.DefaultWaitTimeout))
	start, cost0 := time.Now(), tr.cost()
	p := startPacer(sess, tickS, tr)
	r.lad.run(srv.URL, tr)
	r.wallS = time.Since(start).Seconds()
	r.traceCost = tr.cost() - cost0
	srv.Close()
	p.halt()
	r.pacerTicks = p.ticks
	r.final = sess.Stats()

	var ws []*serve.Waiter
	for i := 0; i < waiters; i++ {
		_, w, err := sess.Inject(512, 187, true)
		if err != nil {
			r.fail("blocking inject before close: %v", err)
			continue
		}
		ws = append(ws, w)
	}
	cid := tr.begin("serve.Session.Close", 0, 0)
	t0 := time.Now()
	r.res, _ = sess.Close()
	r.closeS = time.Since(t0).Seconds()
	tr.end(cid)
	for _, w := range ws {
		select {
		case <-w.Done:
		default:
			r.fail("request %d unresolved after Close", w.Tag)
		}
	}
	if err := r.res.CheckInvariants(); err != nil {
		r.fail("%v", err)
	}
	return r
}

// serveOptions is dynamoserve's configuration of the system under test.
func serveOptions(seed uint64) core.Options {
	o, _ := core.SystemByName(system)
	o.Fidelity = core.FidelityEvent
	o.Seed = seed
	o.WarmLoad = conversationWarm(servePeakRPS, trace.OpenSourceHourStart)
	return o
}

// runServeLive builds dynamoserve's session several times, keeping the
// last; runs it unpaced for a share of seconds; then serves the ladder
// against it, in steps that fit the whole ladder into the rest.
func runServeLive(seed uint64, seconds float64, tr *tracer, log io.Writer) *outcome {
	clk := newBenchClock(true)
	h := newHostRef()
	st, base, _, sess := setUp(tr, h, func(parent int32) trace.Trace {
		id := tr.begin("trace.OpenSourceHour", parent, 0)
		defer tr.end(id)
		return trace.OpenSourceHour(servePeakRPS, seed)
	}, func(trc trace.Trace, repo *profile.Repository, parent int32) *serve.Session {
		id := tr.begin("serve.New", parent, 0)
		defer tr.end(id)
		return serve.New(serve.Config{Name: system, Opts: serveOptions(seed), Trace: trc,
			Speed: serveSpeed, Loop: true, Repo: repo, WallClock: clk.now})
	})
	cu := catchUp(sess, clk, time.Duration(catchUpShare*seconds*float64(time.Second)), tr, h)
	clk.run()
	step := time.Duration((1 - catchUpShare) * seconds / ladderSteps * float64(time.Second))
	sv := serveSession(sess, seed, cu.tickS, step, tr)
	res := sv.res

	if h.bad > 0 {
		sv.fail("host reference: %d bursts gave another checksum", h.bad)
	}
	out := newOutcome()
	out.attempted, out.failed = 1, len(sv.failures)
	out.failures = sv.failures
	k := h.scale()
	logSetups(log, st, len(base))
	logRef(log, h, k)
	fmt.Fprintf(log, "catch-up ticks %d virtual_s %.0f speed %.1f s/s per CPU s, %.1f per wall s\n", cu.ticks, cu.virtual, cu.speed, cu.wallSpeed)
	out.report(sv, log)
	e, l := out.e2e, out.layer
	e["setup_s"] = median(st.total) * k
	e["sim_speed"] = cu.speed / k
	l["sim_speed_cpu"] = cu.speed
	l["sim_speed_wall"] = cu.wallSpeed
	l["host.ref_ms"] = median(h.times) * 1e3
	tickStats(e, l, cu.tickMs, k)
	simulated(l, res)
	setupLayers(l, st, k)
	// The session's ticks run inside its advances; from outside they are
	// not classified by epoch.
	l["core.tick_plain_ms"] = median(cu.tickMs) * k
	l["core.tick_pool_epoch_ms"] = 0
	l["core.tick_cluster_epoch_ms"] = 0
	l["core.finish_s"] = sv.closeS
	l["engine.prefix_hit_ratio"] = 0
	tokens := 0
	for _, en := range base {
		tokens += en.OutputTokens
	}
	for _, j := range sv.lad.jobs {
		if j.handed {
			tokens += j.out
		}
	}
	sampleStats(l, res, tokens)
	leafProbes(l, tr, base, &engine.KVConfig{}, res.AvgServers, seed)
	// Request spans are recorded after the ladder ends, so the timed
	// phase pays only for the pacer's spans: the tracer's own time.
	l["trace.overhead_pct"] = 100 * sv.traceCost.Seconds() / sv.wallS
	return out
}

// serveLayers are the per-layer metrics only a served session gives.
var serveLayers = []string{"accept_p50_ms", "accept_p99_ms", "serve_max_rps",
	"serve.http_rtt_p50_ms", "serve.http_rtt_p99_ms", "serve.stats_ms", "serve.sim_lag_max_s",
	"serve.admission_shed", "serve.close_drain_s", "serve.gen_late_p99_ms"}

// report adds a session's ladder to an outcome: request counts, the
// per-rate lines, and the serve metrics.
func (out *outcome) report(sv *served, log io.Writer) {
	for _, rr := range sv.lad.steps {
		fmt.Fprintf(log, "rate %6.0f/s sent %5d errors %d accept p50 %7.3f ms p99 %9.3f ms served %7.1f/s lag_max %5.2f s meets_limits %v\n",
			rr.rate, rr.sent, rr.errors, rr.p50, rr.p99, rr.served, rr.lagMax, rr.meetsLimits)
		out.attempted += rr.sent
		out.failed += rr.errors
	}
	out.attempted += waiters
	if !sv.lad.saturated() {
		fmt.Fprintf(log, "ladder ended at its top rate without breaking a limit: serve_max_rps is a lower bound\n")
	}
	fmt.Fprintf(log, "accept samples %d pacer ticks %d virtual_s %.0f wall_s %.3f close_s %.3f\n",
		len(sv.lad.accept), sv.pacerTicks, sv.final.VirtualSeconds, sv.wallS, sv.closeS)
	l := out.layer
	l["accept_p50_ms"] = quantile(sv.lad.accept, 0.50)
	l["accept_p99_ms"] = quantile(sv.lad.accept, 0.99)
	l["serve_max_rps"] = sv.lad.maxRPS()
	var rtt, stats, late []float64
	for _, j := range sv.lad.jobs {
		if !j.handed {
			continue
		}
		late = append(late, float64(j.late.Nanoseconds())/1e6)
		d := float64(j.done.Sub(j.sent).Nanoseconds()) / 1e6
		if j.stats {
			stats = append(stats, d)
		} else {
			rtt = append(rtt, d)
		}
	}
	l["serve.http_rtt_p50_ms"] = quantile(rtt, 0.5)
	l["serve.http_rtt_p99_ms"] = quantile(rtt, 0.99)
	l["serve.stats_ms"] = quantile(stats, 0.5)
	lagMax := 0.0
	for _, rr := range sv.lad.steps {
		lagMax = math.Max(lagMax, rr.lagMax)
	}
	l["serve.sim_lag_max_s"] = lagMax
	l["serve.admission_shed"] = float64(sv.final.AdmissionShed)
	l["serve.close_drain_s"] = sv.closeS
	l["serve.gen_late_p99_ms"] = quantile(late, 0.99)
}
