package main

import (
	"math"
	"time"
)

// The host reference: a fixed piece of work, owned by the benchmark and
// never by the program, run in short bursts between the timed calls of
// a run. On a shared virtual machine the CPU's speed moves by tens of
// percent within minutes, with the load other guests put on the physical
// cores and caches, and process CPU time moves with it. The
// reference moves too. Host times divided by the reference's median
// time over the same run, and multiplied by refNominal, are in reference
// CPU seconds: seconds on a CPU that runs one reference burst in
// refNominal.
//
// The burst is a small discrete-event loop shaped like the simulator's
// inner work: a binary heap of timed events, a map of live requests, a
// log-normal token gap per event and a log-binned histogram. It
// allocates nothing once its state has grown, so it neither triggers
// the garbage collector nor depends on the program's heap.
const (
	// refNominal is one burst's CPU time on the reference CPU, about
	// what a 2-vCPU Xeon VM takes when its neighbours are quiet.
	refNominal = 4 * time.Millisecond
	// refEvery is the CPU time a run spends on its own work between
	// bursts: about a twentieth of the run goes to the reference.
	refEvery = 80 * time.Millisecond
	// refRequests and refTokens size one burst.
	refRequests = 256
	refTokens   = 64
)

type refEvent struct {
	at  float64
	req int32
}

// hostRef runs the reference and keeps each burst's CPU time.
type hostRef struct {
	q     []refEvent
	left  map[int32]int32
	bins  [256]uint32
	last  time.Duration // CPU time at the end of the last burst
	times []float64     // CPU seconds of each burst
	sum   uint64        // the first burst's checksum
	bad   int           // bursts whose checksum differed from the first's
}

func newHostRef() *hostRef {
	return &hostRef{q: make([]refEvent, 0, refRequests), left: make(map[int32]int32, refRequests)}
}

// due runs a burst when refEvery of CPU time has passed since the last
// one; now is the current CPU time, which the caller has just read.
func (h *hostRef) due(now time.Duration) {
	if now-h.last >= refEvery {
		h.sample()
	}
}

// sample runs one burst and records its CPU time.
func (h *hostRef) sample() {
	t0 := cpuTime()
	sum := h.burst()
	h.last = cpuTime()
	h.times = append(h.times, (h.last - t0).Seconds())
	if len(h.times) == 1 {
		h.sum = sum
	} else if sum != h.sum {
		h.bad++
	}
}

// scale converts CPU seconds measured in this run to reference CPU
// seconds: refNominal over the median burst.
func (h *hostRef) scale() float64 {
	if len(h.times) == 0 {
		h.sample()
	}
	return refNominal.Seconds() / median(h.times)
}

// burst runs refRequests requests of refTokens tokens each, arriving as
// a Poisson process, each token a heap event, and returns a checksum of
// the histogram, which is the same on every burst.
func (h *hostRef) burst() uint64 {
	rng := uint64(0x9E3779B97F4A7C15)
	uniform := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng>>11) / (1 << 53)
	}
	h.q = h.q[:0]
	clear(h.left)
	h.bins = [256]uint32{}
	t := 0.0
	for i := int32(0); i < refRequests; i++ {
		t -= 0.02 * math.Log(1-uniform())
		h.push(refEvent{at: t, req: i})
		h.left[i] = refTokens
	}
	for len(h.q) > 0 {
		e := h.pop()
		gap := 0.04 * math.Exp(0.6*(uniform()-0.5))
		h.bins[int(32*math.Log(gap)+256)&255]++
		if n := h.left[e.req] - 1; n > 0 {
			h.left[e.req] = n
			h.push(refEvent{at: e.at + gap, req: e.req})
		} else {
			delete(h.left, e.req)
		}
	}
	var sum uint64
	for i, n := range h.bins {
		sum = sum*31 + uint64(i)*uint64(n)
	}
	return sum
}

func (h *hostRef) push(e refEvent) {
	h.q = append(h.q, e)
	for i := len(h.q) - 1; i > 0; {
		p := (i - 1) / 2
		if h.q[p].at <= h.q[i].at {
			break
		}
		h.q[p], h.q[i] = h.q[i], h.q[p]
		i = p
	}
}

func (h *hostRef) pop() refEvent {
	top := h.q[0]
	n := len(h.q) - 1
	h.q[0] = h.q[n]
	h.q = h.q[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.q[l].at < h.q[m].at {
			m = l
		}
		if r < n && h.q[r].at < h.q[m].at {
			m = r
		}
		if m == i {
			break
		}
		h.q[i], h.q[m] = h.q[m], h.q[i]
		i = m
	}
	return top
}
