package engine

import (
	"fmt"

	"dynamollm/internal/energy"
	"dynamollm/internal/perfmodel"
	"dynamollm/internal/simclock"
	"dynamollm/internal/workload"
)

// SeqSnapshot captures one in-flight request's generation state. The
// request itself is stored by value: a restored engine always owns its
// requests (SubmitCopy semantics), never a pointer into caller storage.
type SeqSnapshot struct {
	Req          workload.Request
	PrefillLeft  int
	Produced     int
	Ctx          int
	KVBlocks     int
	TierBlocks   int
	PrefixTokens int
	NoPrefix     bool
	LastToken    simclock.Time
}

// PrefixSnapshot captures one prompt-prefix cache entry, in the cache's
// insertion (eviction) order.
type PrefixSnapshot struct {
	Group   uint64
	Tokens  int
	Blocks  int
	Refs    int
	Spilled bool
}

// SwapSnapshot captures one in-flight swap-in transfer: the sequence it
// carries and the absolute link time at which it completes. Transfers are
// stored in link (FIFO) order so the restored engine re-arms them with
// identical completion ordering.
type SwapSnapshot struct {
	Seq SeqSnapshot
	End simclock.Time
}

// Snapshot is a self-contained copy of an Engine at a quiescent instant:
// every event at or before Now has executed and anything still pending
// lies strictly later (the state after Clock.RunUntil(Now)). It owns all
// of its storage — the meter and sequence states are cloned — so it stays
// valid while the source engine keeps running, and one snapshot can seed
// any number of restored engines.
//
// Callbacks (completion, token, latency sink) are deliberately not part of
// the snapshot; rewire them on the restored engine with SetOnComplete,
// SetOnToken, and SetSink. Latency samples recorded before the cut live in
// the caller's sink, not here.
type Snapshot struct {
	Cfg perfmodel.Config
	Now simclock.Time

	Waiting []SeqSnapshot
	Active  []SeqSnapshot

	KVTokens    float64
	Running     bool
	FrozenUntil simclock.Time
	IterEnd     simclock.Time
	NextStart   simclock.Time

	// Block-granular KV state (zero value when block accounting is off).
	// PreemptedQ is the re-admission queue; Prefix the prompt cache in
	// eviction order. The callbacks (handoff, reject) are rewired by the
	// caller like the other callbacks.
	KV           KVConfig
	KVBlocksUsed int
	PrefillOnly  bool
	PreemptedQ   []SeqSnapshot
	Prefix       []PrefixSnapshot

	// Tier state (tier.go): the spilled queue in spill (LRU) order,
	// swap-ins completed but not yet batched, in-flight transfers in link
	// order (re-armed on restore), and the link backlog horizon.
	KVTierUsed int
	LinkFreeAt simclock.Time
	Spilled    []SeqSnapshot
	SwapReady  []SeqSnapshot
	Swapping   []SwapSnapshot

	Completed     int
	TokensIn      int
	TokensOut     int
	Preempted     int
	PrefixHits    int
	KVRejected    int
	Handoffs      int
	SwapOuts      int
	SwapIns       int
	Recomputes    int
	TierEvictions int
	Meter         *energy.Meter
}

func snapSeq(st *seqState) SeqSnapshot {
	return SeqSnapshot{
		Req:          *st.req,
		PrefillLeft:  st.prefillLeft,
		Produced:     st.produced,
		Ctx:          st.ctx,
		KVBlocks:     st.kvBlocks,
		TierBlocks:   st.tierBlocks,
		PrefixTokens: st.prefixTokens,
		NoPrefix:     st.noPrefix,
		LastToken:    st.lastToken,
	}
}

// Snapshot captures the engine's full state at the clock's current time.
// The engine must be quiescent in the snapshot sense above — for the
// cluster backend that is any tick boundary, right after RunTo.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		Cfg:          e.Cfg,
		Now:          e.clock.Now(),
		KVTokens:     e.kvTokens,
		Running:      e.running,
		FrozenUntil:  e.frozenUntil,
		IterEnd:      e.iterEnd,
		NextStart:    e.nextStart,
		Completed:    e.Completed,
		TokensIn:     e.TokensIn,
		TokensOut:    e.TokensOut,
		Preempted:    e.Preempted,
		PrefixHits:   e.PrefixHits,
		KVRejected:   e.KVRejected,
		Handoffs:     e.Handoffs,
		KV:           e.kv,
		KVBlocksUsed: e.kvBlocksUsed,
		PrefillOnly:  e.prefillOnly,

		KVTierUsed:    e.kvTierUsed,
		LinkFreeAt:    e.linkFreeAt,
		SwapOuts:      e.SwapOuts,
		SwapIns:       e.SwapIns,
		Recomputes:    e.Recomputes,
		TierEvictions: e.TierEvictions,

		Meter: e.meter.Clone(),
	}
	if n := len(e.waiting) - e.waitHead; n > 0 {
		s.Waiting = make([]SeqSnapshot, 0, n)
		for i := e.waitHead; i < len(e.waiting); i++ {
			s.Waiting = append(s.Waiting, snapSeq(e.waiting[i]))
		}
	}
	if n := e.preLen(); n > 0 {
		s.PreemptedQ = make([]SeqSnapshot, 0, n)
		for i := e.preHead; i < len(e.preempted); i++ {
			s.PreemptedQ = append(s.PreemptedQ, snapSeq(e.preempted[i]))
		}
	}
	if n := len(e.prefixList); n > 0 {
		s.Prefix = make([]PrefixSnapshot, 0, n)
		for _, pe := range e.prefixList {
			s.Prefix = append(s.Prefix, PrefixSnapshot{Group: pe.group, Tokens: pe.tokens, Blocks: pe.blocks, Refs: pe.refs, Spilled: pe.spilled})
		}
	}
	if n := e.spillLen(); n > 0 {
		s.Spilled = make([]SeqSnapshot, 0, n)
		for i := e.spillHead; i < len(e.spilled); i++ {
			s.Spilled = append(s.Spilled, snapSeq(e.spilled[i]))
		}
	}
	if n := len(e.swapReady); n > 0 {
		s.SwapReady = make([]SeqSnapshot, 0, n)
		for _, st := range e.swapReady {
			s.SwapReady = append(s.SwapReady, snapSeq(st))
		}
	}
	if e.swapInflight > 0 {
		s.Swapping = make([]SwapSnapshot, 0, e.swapInflight)
		for i := e.swapHead; i < len(e.swapQ); i++ {
			if t := e.swapQ[i]; t.st != nil {
				s.Swapping = append(s.Swapping, SwapSnapshot{Seq: snapSeq(t.st), End: t.end})
			}
		}
	}
	if len(e.active) > 0 {
		s.Active = make([]SeqSnapshot, 0, len(e.active))
		for _, st := range e.active {
			s.Active = append(s.Active, snapSeq(st))
		}
	}
	return s
}

func restoreSeq(e *Engine, q SeqSnapshot) *seqState {
	st := e.getState()
	st.owned = q.Req
	st.req = &st.owned
	st.prefillLeft = q.PrefillLeft
	st.produced = q.Produced
	st.ctx = q.Ctx
	st.kvBlocks = q.KVBlocks
	st.tierBlocks = q.TierBlocks
	st.prefixTokens = q.PrefixTokens
	st.noPrefix = q.NoPrefix
	st.lastToken = q.LastToken
	return st
}

// FromSnapshot rebuilds an engine on the given clock, which must stand at
// the snapshot instant (the restored engine re-schedules its pending
// iteration event in absolute time). Advancing the restored engine
// produces bit-identical results to advancing the original uninterrupted:
// queues, KV state, the energy meter, and the one in-flight iteration
// event are all reproduced exactly.
func FromSnapshot(s *Snapshot, clock *simclock.Clock) *Engine {
	if clock.Now() != s.Now {
		panic(fmt.Sprintf("engine: restoring a snapshot taken at %v onto a clock at %v", s.Now, clock.Now()))
	}
	e := &Engine{
		Cfg:         s.Cfg,
		clock:       clock,
		kvCapacity:  s.Cfg.Model.KVCapacityTokens(s.Cfg.TP),
		kvTokens:    s.KVTokens,
		running:     s.Running,
		frozenUntil: s.FrozenUntil,
		iterEnd:     s.IterEnd,
		nextStart:   s.NextStart,
		meter:       s.Meter.Clone(),
		prefillOnly: s.PrefillOnly,
		Counters: Counters{
			Completed:     s.Completed,
			TokensIn:      s.TokensIn,
			TokensOut:     s.TokensOut,
			Preempted:     s.Preempted,
			PrefixHits:    s.PrefixHits,
			KVRejected:    s.KVRejected,
			Handoffs:      s.Handoffs,
			SwapOuts:      s.SwapOuts,
			SwapIns:       s.SwapIns,
			Recomputes:    s.Recomputes,
			TierEvictions: s.TierEvictions,
		},
	}
	e.onIterStart = e.iterate
	e.onIterEnd = e.finishIteration
	e.onSwapDone = e.swapDone
	if s.KV.BlockTokens > 0 {
		e.ConfigureKV(s.KV)
		e.kvBlocksUsed = s.KVBlocksUsed
		e.kvTierUsed = s.KVTierUsed
		e.linkFreeAt = s.LinkFreeAt
		if len(s.Prefix) > 0 && e.prefixMap == nil {
			e.prefixMap = make(map[uint64]*prefixEntry)
		}
		for _, p := range s.Prefix {
			pe := e.getPrefix()
			pe.group, pe.tokens, pe.blocks, pe.refs, pe.spilled = p.Group, p.Tokens, p.Blocks, p.Refs, p.Spilled
			e.prefixMap[pe.group] = pe
			e.prefixList = append(e.prefixList, pe)
		}
	}
	for _, q := range s.Waiting {
		e.waiting = append(e.waiting, restoreSeq(e, q))
	}
	for _, q := range s.PreemptedQ {
		e.preempted = append(e.preempted, restoreSeq(e, q))
	}
	for _, q := range s.Active {
		e.active = append(e.active, restoreSeq(e, q))
	}
	for _, q := range s.Spilled {
		e.spilled = append(e.spilled, restoreSeq(e, q))
	}
	for _, q := range s.SwapReady {
		e.swapReady = append(e.swapReady, restoreSeq(e, q))
	}
	// Mid-swap transfers re-arm from their cut point: the completion event
	// is rescheduled at its original absolute time, in link order, so the
	// restored engine's swap-in deliveries are bit-identical.
	for _, q := range s.Swapping {
		t := e.getSwap()
		t.st, t.end = restoreSeq(e, q.Seq), q.End
		e.swapQ = append(e.swapQ, t)
		e.swapInflight++
		clock.At(t.end, e.onSwapDone)
	}
	// Re-arm the engine's single in-flight event. While running, exactly
	// one of two events is pending: the iteration end (strictly in the
	// future — a due end would have fired before the snapshot) or the next
	// iteration start at the time kick actually scheduled (which a later
	// Freeze does not move, hence NextStart rather than FrozenUntil).
	if e.running {
		if e.iterEnd > s.Now {
			clock.At(e.iterEnd, e.onIterEnd)
		} else {
			at := e.nextStart
			if at < s.Now {
				at = s.Now
			}
			clock.At(at, e.onIterStart)
		}
	}
	return e
}
