package engine

import (
	"fmt"

	"dynamollm/internal/simclock"
)

// Clone returns an independent copy of the engine running on clock, which
// must stand at the engine's current instant. The engine must be
// quiescent: every event at or before now has executed and anything still
// pending lies strictly later (the state after Clock.RunUntil(now)) — for
// the cluster backend that is any tick boundary, right after RunTo.
// Advancing the clone produces results bit-identical to advancing the
// source uninterrupted, and neither perturbs the other: queues, KV state,
// the energy meter, in-flight swap-ins and the one in-flight iteration
// event are all reproduced.
//
// The clone owns its requests (SubmitCopy semantics), never a pointer into
// caller storage. Callbacks (completion, token, handoff, reject, latency
// sink) are not carried over; the owner rewires them on the clone.
func (e *Engine) Clone(clock *simclock.Clock) *Engine {
	now := e.clock.Now()
	if clock.Now() != now {
		panic(fmt.Sprintf("engine: cloning an engine at %v onto a clock at %v", now, clock.Now()))
	}
	n := *e
	n.clock = clock
	n.meter = e.meter.Clone()
	n.onIterStart, n.onIterEnd, n.onSwapDone = n.iterate, n.finishIteration, n.swapDone
	n.onComplete, n.onToken, n.sink, n.onHandoff, n.onReject = nil, nil, nil, nil, nil
	n.free, n.freePrefix, n.freeSwap = nil, nil, nil // pools start empty

	n.waiting, n.waitHead = cloneSeqs(e.waiting[e.waitHead:]), 0
	n.preempted, n.preHead = cloneSeqs(e.preempted[e.preHead:]), 0
	n.spilled, n.spillHead = cloneSeqs(e.spilled[e.spillHead:]), 0
	n.active = cloneSeqs(e.active)
	n.swapReady = cloneSeqs(e.swapReady)

	// Entries live in the map and the list at once (maybeInsertPrefix),
	// so a nil map means an empty cache.
	n.prefixList = nil
	if e.prefixMap != nil {
		n.prefixMap = make(map[uint64]*prefixEntry, len(e.prefixList))
		n.prefixList = make([]*prefixEntry, 0, len(e.prefixList))
		for _, pe := range e.prefixList {
			cp := *pe
			n.prefixList = append(n.prefixList, &cp)
			n.prefixMap[cp.group] = &cp
		}
	}

	// Mid-swap transfers re-arm at their original absolute completion
	// times, in link order; cancelled ones (drained mid-flight) are
	// dropped, since their completion would only pop and discard them.
	// They are scheduled before the iteration event because the clock
	// breaks ties by insertion order.
	n.swapQ, n.swapHead = nil, 0
	if e.swapInflight > 0 {
		n.swapQ = make([]*swapIn, 0, e.swapInflight)
		for _, t := range e.swapQ[e.swapHead:] {
			if t.st != nil {
				n.swapQ = append(n.swapQ, &swapIn{st: cloneSeq(t.st), end: t.end})
				clock.At(t.end, n.onSwapDone)
			}
		}
	}
	// Re-arm the engine's single in-flight event. While running, exactly
	// one of two events is pending: the iteration end (strictly in the
	// future — a due end would have fired before the clone) or the next
	// iteration start at the time kick actually scheduled (which a later
	// Freeze does not move, hence nextStart rather than frozenUntil).
	if n.running {
		if n.iterEnd > now {
			clock.At(n.iterEnd, n.onIterEnd)
		} else {
			clock.At(max(n.nextStart, now), n.onIterStart)
		}
	}
	return &n
}

// cloneSeq copies one sequence, its request stored by value.
func cloneSeq(st *seqState) *seqState {
	c := *st
	c.owned = *st.req
	c.req = &c.owned
	return &c
}

// cloneSeqs copies a queue's live entries into fresh storage (nil when
// there are none).
func cloneSeqs(q []*seqState) []*seqState {
	if len(q) == 0 {
		return nil
	}
	out := make([]*seqState, len(q))
	for i, st := range q {
		out[i] = cloneSeq(st)
	}
	return out
}
