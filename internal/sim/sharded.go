package sim

import (
	"fmt"
	"sync/atomic"
)

// This file implements the conservative-parallel execution mode: a Sharded
// engine runs N per-shard Engines on their own goroutines, advancing in
// barrier-separated rounds. Two window policies exist:
//
//   - Adaptive per-shard-pair lookahead (the default): Chandy–Misra-style
//     earliest-output-time (EOT) horizons. Each shard k with a non-empty
//     queue advertises, per destination i, the earliest virtual time at
//     which anything it still holds could reach i: its queue head next(k)
//     plus the minimum latency of any routing path k -> ... -> i (the
//     all-pairs shortest path over the per-pair lookahead matrix, so a
//     cheap two-hop forward through an idle shard is accounted for). Shard
//     i may run up to min over advertising shards of that bound, exclusive
//     — usually far past the single global window. Empty shards advertise
//     nothing (the barrier itself plays the role of null messages: EOTs
//     are recomputed from every queue head at each round, so an idle shard
//     can never stall the others — see the starvation test).
//   - Lock-step (SetLockStep(true), kept for differential testing): one
//     global window [W, W+L) of the minimum pair lookahead L, the mode PR 5
//     introduced.
//
// Both are conservative: within a round no cross-shard event issued inside
// the round can land inside it, so the shards are independent and may
// execute concurrently. Cross-shard events travel through per-shard
// outboxes flushed at the round barrier — one batched injection per round,
// not a channel operation per event. Each shard is driven by a persistent
// worker goroutine fed one horizon per round over a channel, so a round
// costs two channel operations per participating shard and allocates
// nothing (no per-round goroutine spawns, WaitGroups, or failure slices).
//
// # Determinism: lineage keys
//
// Concurrency alone would only give per-shard determinism; to be
// byte-identical to the *serial* engine — including the order of same-tick
// ties between events that originated on different shards — every event
// carries a lineage key reconstructing its serial scheduling instant:
//
//	key = (t_sched, parent, idx)
//
// where t_sched is the virtual time at which the event was scheduled,
// parent is the key of the event during whose dispatch the schedule call
// happened (nil for setup-time schedules, which instead carry a group-wide
// root index in program order), and idx is the schedule-call index within
// that dispatch. The serial engine dispatches same-time events in seq
// (scheduling) order; scheduling order is exactly "dispatch order of the
// scheduling events, then call index", and dispatch order is (t, seq)
// recursively — so comparing (t_sched, parent-lineage, idx) reproduces the
// serial seq order without any shared counter. keyCmp resolves as soon as
// scheduling times diverge; since times are non-decreasing along a lineage
// and root indices are globally unique, the order is total.
//
// Each keyed engine orders its heap by key (see eventHeap.less), so events
// injected at a barrier interleave with locally scheduled ones exactly as
// they would have in the serial engine, and FuzzShardWindow checks the
// whole construction — in both window policies — against the serial engine
// as an oracle. The adaptive policy does not interact with key ordering at
// all: it only changes *when* a shard is allowed to dispatch, never the
// key-ordered contents of its heap, and conservativeness guarantees every
// cross-shard arrival is injected before the destination's clock could
// reach it.
//
// # Key pooling
//
// Lineage nodes are refcounted and pooled per engine (see releaseKey): an
// event's key holds one reference plus one per child key created during its
// dispatch, and the dispatching engine releases the event's reference
// before popping the next one. A node whose count hits zero goes on the
// dispatching engine's intrusive free list (the parent pointer doubles as
// the list link), so the steady-state event path allocates nothing —
// TestShardedSteadyStateAllocFree holds this at zero.
// Reference counts are atomic because shards release concurrently and
// lineages cross shards; comparisons are safe because every ancestor of a
// live key is pinned by its descendants' references.
//
// Shard tagging inside one Engine (NewEngineShards) has none of these costs,
// which is one reason core runtimes use that instead (the other: their
// zero-latency global couplings — done flags, host-pointer steals — are
// incompatible with a nonzero lookahead).

// knode is one lineage-key node. t is the virtual time of the scheduling
// call; parent the key of the dispatch that made it (nil for setup); idx
// the schedule-call index within that dispatch, or the group-wide root
// index when parent is nil. refs counts the holders keeping the node
// alive: the one event (or outbox entry) carrying it, plus one per child
// node. On the engine free list, parent is repurposed as the list link.
type knode struct {
	t      Time
	parent *knode
	idx    uint64
	refs   int32 // atomic
}

// keyPoolMax bounds an engine's knode free list. Symmetric traffic recycles
// in place; under one-directional routing the receiving engine would
// otherwise accumulate every sender-allocated node.
const keyPoolMax = 1 << 15

// newKnode returns a pooled (or fresh) lineage node owned by one reference.
func (e *Engine) newKnode(t Time, parent *knode, idx uint64) *knode {
	if k := e.keyPool; k != nil {
		e.keyPool = k.parent
		e.keyPoolN--
		k.t, k.parent, k.idx = t, parent, idx
		k.refs = 1 // the pool transfer happened on this goroutine; no racing holders exist
		return k
	}
	return &knode{t: t, parent: parent, idx: idx, refs: 1}
}

// releaseKey drops the dispatched event's reference on its key, recycling
// the node — and transitively any ancestors it was the last holder of —
// onto this engine's free list. Runs on the goroutine holding the engine's
// baton, so the free list needs no lock; the counts are atomic because an
// ancestor may be released concurrently from another shard.
func (e *Engine) releaseKey(k *knode) {
	for k != nil {
		if atomic.AddInt32(&k.refs, -1) != 0 {
			return
		}
		parent := k.parent
		if e.keyPoolN < keyPoolMax {
			k.parent = e.keyPool
			e.keyPool = k
			e.keyPoolN++
		}
		k = parent
	}
}

// keyCmp orders two lineage keys by their serial scheduling instants. It is
// total on distinct keys: recursion terminates at diverging times, at a
// shared parent (sibling idx), or at the roots (globally unique idx).
func keyCmp(a, b *knode) int {
	for {
		if a == b {
			return 0
		}
		// A setup-time schedule precedes every dispatch-time schedule.
		if a == nil {
			return -1
		}
		if b == nil {
			return 1
		}
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		if a.parent == b.parent {
			if a.idx < b.idx {
				return -1
			}
			return 1
		}
		a, b = a.parent, b.parent
	}
}

// routed is one cross-shard event waiting in an outbox for the next round
// barrier.
type routed struct {
	dst int
	t   Time
	key *knode
	fn  func()
}

// maxTime is the "no bound" sentinel of the horizon computation; far enough
// from the int64 edge that adding a path latency cannot overflow.
const maxTime = Time(1) << 60

// Sharded executes a shard-confined program on n concurrent engines in
// conservative rounds (see the file comment). Procs and local events belong
// to exactly one shard; the only cross-shard interaction is RouteAfter,
// whose delay must be at least the source→destination pair lookahead. Setup
// (Go/GoID on the shard engines, via Shard or the Go helper, and any
// SetPairLookahead calls) must happen before Run and always on the caller's
// goroutine; Run drives all shards and returns like Engine.Run, re-raising
// at most one ProcPanic after tearing every shard down.
type Sharded struct {
	shards   []*Engine
	look     Time     // minimum pair lookahead (the lock-step window width)
	pair     [][]Time // pair[src][dst]: minimum cross-shard delay src -> dst
	dist     [][]Time // all-pairs min path latency; nil until computed (dist[i][i] = min cycle)
	lockstep bool
	rootSeq  uint64
	out      [][]routed // per-source-shard outboxes (only [src] touched by shard src)
	rounds   uint64     // barrier rounds executed
	routedN  uint64     // cross-shard events injected at barriers

	next    []Time // scratch: per-shard queue-head time, -1 when empty
	horizon []Time // scratch: per-shard inclusive round horizon

	// Persistent round workers (started at the first concurrent round):
	// worker i owns engine i, receives one inclusive horizon per round on
	// work[i], and reports completion on done. fails[i] is written only by
	// worker i during its round and read by the coordinator after the
	// barrier.
	work  []chan Time
	done  chan int
	fails []*ProcPanic
}

// NewSharded returns a group of n keyed engines with a uniform pair
// lookahead (the minimum cross-shard event delay; must be positive), in
// adaptive mode. Use SetPairLookahead to widen individual pairs and
// SetLockStep to fall back to the single global window.
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead")
	}
	s := &Sharded{
		shards:  make([]*Engine, n),
		look:    lookahead,
		pair:    make([][]Time, n),
		out:     make([][]routed, n),
		next:    make([]Time, n),
		horizon: make([]Time, n),
	}
	for i := range s.shards {
		e := NewEngine()
		e.keyed = true
		e.rootSeq = &s.rootSeq
		s.shards[i] = e
		s.pair[i] = make([]Time, n)
		for j := range s.pair[i] {
			s.pair[i][j] = lookahead
		}
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Lookahead returns the minimum pair lookahead — the lock-step window width
// and the smallest delay RouteAfter accepts on any pair.
func (s *Sharded) Lookahead() Time { return s.look }

// PairLookahead returns the minimum cross-shard delay of the src→dst pair.
func (s *Sharded) PairLookahead(src, dst int) Time { return s.pair[src][dst] }

// SetPairLookahead raises (or lowers) the minimum delay of one directed
// shard pair, e.g. from topo.Machine.PairLookahead when shards map to nodes
// with heterogeneous latency. Must be called before the first Run: the
// adaptive horizons derived from the matrix must bound every event already
// in flight.
func (s *Sharded) SetPairLookahead(src, dst int, d Time) {
	if s.rounds > 0 {
		panic("sim: SetPairLookahead after Run would unsoundly re-bound in-flight events")
	}
	if src == dst || src < 0 || dst < 0 || src >= len(s.shards) || dst >= len(s.shards) {
		panic(fmt.Sprintf("sim: SetPairLookahead pair (%d, %d) invalid for %d shards", src, dst, len(s.shards)))
	}
	if d <= 0 {
		panic("sim: SetPairLookahead needs a positive lookahead")
	}
	s.pair[src][dst] = d
	s.dist = nil
	s.look = maxTime
	for i := range s.pair {
		for j, p := range s.pair[i] {
			if i != j && p < s.look {
				s.look = p
			}
		}
	}
}

// SetLockStep switches between the adaptive per-pair horizons (false, the
// default) and the single global lock-step window (true). Both modes are
// byte-identical to the serial engine; lock-step is kept as the
// differential-testing oracle for the adaptive horizon computation.
func (s *Sharded) SetLockStep(on bool) { s.lockstep = on }

// LockStep reports whether the group runs in lock-step window mode.
func (s *Sharded) LockStep() bool { return s.lockstep }

// Rounds returns the number of barrier rounds executed so far. Fewer rounds
// for the same program means coarser synchronization — the quantity the
// adaptive mode exists to reduce (and what the starvation test bounds).
func (s *Sharded) Rounds() uint64 { return s.rounds }

// Routed returns the total number of cross-shard events injected at
// barriers — the group-level counterpart of Engine.CrossShard.
func (s *Sharded) Routed() uint64 { return s.routedN }

// Shard returns shard i's engine, for setup-time spawns and queries.
// During Run a shard engine must only be touched from its own procs and
// callbacks.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Go spawns a proc on shard i at setup time.
func (s *Sharded) Go(i int, name string, body func(p *Proc)) *Proc {
	return s.shards[i].Go(name, body)
}

// RouteAfter schedules fn to run on shard dst, d nanoseconds from shard
// src's current time — the cross-shard counterpart of After. It must be
// called from within shard src's execution (a proc or callback). A
// cross-shard delay below the pair's lookahead could land inside the
// current round and corrupt the conservative order, so it fails fast.
func (s *Sharded) RouteAfter(src, dst int, d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e := s.shards[src]
	if dst == src {
		e.After(d, fn)
		return
	}
	if d < s.pair[src][dst] {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v (shard %d -> %d)", d, s.pair[src][dst], src, dst))
	}
	// The key is allocated on the source engine at the source's scheduling
	// instant, exactly as the serial engine would have sequenced the call.
	s.out[src] = append(s.out[src], routed{dst: dst, t: e.now + d, key: e.nextKey(), fn: fn})
}

// inject flushes every outbox into the destination engines' heaps. Injection
// order is irrelevant — a heap orders same-time events by lineage key — but the
// loop is deterministic anyway. Called only at barriers (no shard running).
func (s *Sharded) inject() {
	for src := range s.out {
		for _, r := range s.out[src] {
			e := s.shards[r.dst]
			if r.t < e.now {
				panic(fmt.Sprintf("sim: routed event at %v behind shard %d clock %v", r.t, r.dst, e.now))
			}
			e.seq++
			e.heap.push(event{t: r.t, seq: e.seq, fn: r.fn, key: r.key})
			s.routedN++
		}
		s.out[src] = s.out[src][:0]
	}
}

// refreshNext records each shard's queue-head time (-1 when empty) and
// returns the global minimum, or (0, false) when every heap is empty.
func (s *Sharded) refreshNext() (Time, bool) {
	var w Time
	found := false
	for i, e := range s.shards {
		if len(e.heap) == 0 {
			s.next[i] = -1
			continue
		}
		t := e.heap.peek().t
		s.next[i] = t
		if !found || t < w {
			w, found = t, true
		}
	}
	return w, found
}

// computeDist fills the all-pairs minimum path latency matrix over the pair
// lookaheads (Floyd–Warshall; shard counts are small). dist[k][i] bounds
// how soon anything shard k holds can reach shard i through any forwarding
// chain — including k == i, whose entry is the cheapest round-trip cycle:
// a shard's own pending events bound its horizon too, because an event it
// routes out this round can be forwarded back.
func (s *Sharded) computeDist() {
	n := len(s.shards)
	d := make([][]Time, n)
	for i := range d {
		d[i] = make([]Time, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = maxTime
			} else {
				d[i][j] = s.pair[i][j]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] >= maxTime {
				continue
			}
			for j := 0; j < n; j++ {
				if d[k][j] < maxTime && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	s.dist = d
}

// computeHorizons fills the per-shard inclusive horizons of the next round.
//
// Lock-step: every shard gets the global window [w, w+L).
//
// Adaptive: shard i may run while its clock stays strictly below every
// advertised earliest-output-time next(k) + dist(k, i): any event that can
// still land on i originates — possibly through forwarding hops, each
// adding at least its pair lookahead — from some event currently pending
// on a shard k, so it arrives no earlier than that bound. The globally
// minimal shard always has a horizon at or past its own queue head (every
// bound is at least w + min pair lookahead > w), so each round makes
// progress and the adaptive horizon is never tighter than the lock-step
// window.
func (s *Sharded) computeHorizons(w, until Time) {
	if s.lockstep {
		end := w + s.look // exclusive window end
		if until >= 0 && end > until+1 {
			end = until + 1
		}
		for i := range s.horizon {
			s.horizon[i] = end - 1
		}
		return
	}
	for i := range s.shards {
		h := maxTime
		for k := range s.shards {
			if s.next[k] < 0 {
				continue
			}
			if c := s.next[k] + s.dist[k][i] - 1; c < h {
				h = c
			}
		}
		if until >= 0 && h > until {
			h = until
		}
		s.horizon[i] = h
	}
}

// Run executes rounds until every shard's queue is empty or the next event
// lies beyond the until horizon (Forever for none). Semantics mirror
// Engine.Run: with a horizon and events remaining beyond it, every shard's
// clock is advanced exactly to the horizon and until is returned; otherwise
// the time of the last dispatched event is returned. A ProcPanic on any
// shard (lowest failure time wins, then lowest shard) tears all shards down
// and is re-raised exactly once on the caller.
func (s *Sharded) Run(until Time) Time {
	if len(s.shards) == 1 {
		// One shard has no cross-shard traffic (RouteAfter to self is After),
		// hence no outboxes, rounds or windows.
		return s.shards[0].Run(until)
	}
	if s.dist == nil {
		s.computeDist()
	}
	for {
		s.inject()
		w, ok := s.refreshNext()
		if !ok {
			return s.Now()
		}
		if until >= 0 && w > until {
			for _, e := range s.shards {
				if e.now < until {
					e.now = until
				}
			}
			return until
		}
		s.computeHorizons(w, until)
		s.runRound()
	}
}

// runRound runs every shard whose queue head lies within its horizon,
// concurrently on the persistent workers, and propagates at most one shard
// failure. Shards with nothing dispatchable this round are skipped — their
// clocks lag, which is safe (injection only checks that arrivals are not in
// a destination's past) and avoids two channel hops per idle shard.
func (s *Sharded) runRound() {
	s.rounds++
	if s.work == nil {
		s.startWorkers()
	}
	nrun := 0
	for i := range s.shards {
		if s.next[i] < 0 || s.next[i] > s.horizon[i] {
			continue
		}
		s.fails[i] = nil
		s.work[i] <- s.horizon[i]
		nrun++
	}
	if nrun == 0 {
		// Unreachable: the minimum shard's horizon is at least its own head.
		panic("sim: conservative round stalled with pending events")
	}
	for ; nrun > 0; nrun-- {
		<-s.done
	}
	var chosen *ProcPanic
	for _, pp := range s.fails {
		if pp != nil && (chosen == nil || pp.T < chosen.T) {
			chosen = pp // shard order breaks T ties: first failing shard wins
		}
	}
	if chosen != nil {
		s.Shutdown()
		panic(chosen)
	}
}

// startWorkers spawns the persistent per-shard runner goroutines. They idle
// on their work channel between rounds and exit when Shutdown closes it.
func (s *Sharded) startWorkers() {
	n := len(s.shards)
	s.work = make([]chan Time, n)
	s.done = make(chan int, n)
	s.fails = make([]*ProcPanic, n)
	for i := range s.shards {
		s.work[i] = make(chan Time, 1)
		// The channel is read here, not in the worker: a shard idle for the
		// whole run would otherwise race its s.work[i] load against
		// Shutdown's clearing of the slice.
		go s.worker(i, s.work[i])
	}
}

func (s *Sharded) worker(i int, work <-chan Time) {
	e := s.shards[i]
	for h := range work {
		s.runShard(i, e, h)
		s.done <- i
	}
}

// runShard runs one shard's round, capturing any failure for the
// coordinator to propagate after the barrier.
func (s *Sharded) runShard(i int, e *Engine, horizon Time) {
	defer func() {
		if r := recover(); r != nil {
			pp, ok := r.(*ProcPanic)
			if !ok {
				// Engine.Run wraps every simulation panic; anything else is a
				// harness bug — keep the shape uniform.
				pp = &ProcPanic{Proc: fmt.Sprintf("shard%d", i), T: e.now, Value: r}
			}
			s.fails[i] = pp
		}
	}()
	e.Run(horizon)
}

// Now returns the latest shard clock.
func (s *Sharded) Now() Time {
	var t Time
	for _, e := range s.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Pending returns the number of queued events across all shards, including
// cross-shard events still waiting in outboxes.
func (s *Sharded) Pending() int {
	n := 0
	for _, e := range s.shards {
		n += e.Pending()
	}
	for _, box := range s.out {
		n += len(box)
	}
	return n
}

// Live returns the number of live procs across all shards.
func (s *Sharded) Live() int {
	n := 0
	for _, e := range s.shards {
		n += e.Live()
	}
	return n
}

// Deadlocked reports whether no shard can make progress while parked procs
// remain somewhere.
func (s *Sharded) Deadlocked() bool {
	parked := 0
	for _, e := range s.shards {
		parked += e.parked
	}
	return s.Pending() == 0 && parked > 0
}

// Stats returns the group's host-side counters: the per-shard sums, which
// equal the serial engine's counters for the same program.
func (s *Sharded) Stats() EngineStats {
	var t EngineStats
	for _, e := range s.shards {
		t.Events += e.stats.Events
		t.Handoffs += e.stats.Handoffs
		t.Callbacks += e.stats.Callbacks
	}
	return t
}

// Shutdown tears down every shard (in shard order, each in reverse proc
// creation order), stops the persistent workers, and drops any cross-shard
// events still in flight. Must be called from outside Run.
func (s *Sharded) Shutdown() {
	if s.work != nil {
		for i := range s.work {
			close(s.work[i])
		}
		s.work = nil
	}
	for _, e := range s.shards {
		e.Shutdown()
	}
	for i := range s.out {
		s.out[i] = nil
	}
}
