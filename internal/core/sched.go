package core

import (
	"contsteal/internal/obs"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
)

// idleBackoff is the small delay an idle worker waits when it has nothing
// at all to do (prevents zero-time spinning on latency-free test machines;
// on realistic machines the failed steal itself dominates).
const idleBackoff = 100 * sim.Nanosecond

// Steal backoff (Runtime.stealBackoff): after stealBackoffAfter consecutive
// failed steals the idle delay doubles per additional failure, capped at
// idleBackoff << stealBackoffShiftMax (12.8 µs), and resets on the next
// successful steal. Off without perturbation — the fixed idleBackoff is part
// of the golden timing — and on under active perturbation, where idle
// workers hammering straggler/degraded victims at full rate would inflate
// contention far beyond what a real backoff-equipped runtime shows.
const (
	stealBackoffAfter    = 4
	stealBackoffShiftMax = 7
)

// collectEvery is how many failed steals pass between lock-queue drains.
const collectEvery = 64

// hierEscalateAfter is how many consecutive failed steals the hierarchical
// victim policy tolerates before escalating from intra-node probes to
// uniform probes over the whole cluster. Reuses failStreak (reset on every
// success), so a worker oscillates naturally: cheap local probes while the
// node has work, cluster-wide probes while it is drained.
const hierEscalateAfter = 2

// idleDelay returns the duration of one idle-loop sleep: the fixed
// idleBackoff, or the bounded exponential backoff when enabled.
func (w *Worker) idleDelay() sim.Time {
	if !w.rt.stealBackoff {
		return idleBackoff
	}
	excess := w.failStreak - stealBackoffAfter
	if excess <= 0 {
		return idleBackoff
	}
	if excess > stealBackoffShiftMax {
		excess = stealBackoffShiftMax
	}
	return idleBackoff << excess
}

// shouldCollect reports whether the periodic lock-queue drain is due. The
// drain fires only when StealsFail has *advanced* to a multiple of
// collectEvery since the last drain: an idle pass that added no failed
// steal (wait-queue resume, lone worker) must not re-fire it while the
// counter sits at the same multiple.
func (w *Worker) shouldCollect() bool {
	if w.rt.cfg.RemoteFree != remobj.LockQueue {
		return false
	}
	if w.st.StealsFail == 0 || w.st.StealsFail%collectEvery != 0 || w.st.StealsFail == w.lastCollectFails {
		return false
	}
	w.lastCollectFails = w.st.StealsFail
	return true
}

// found is what the idle cycle hands the worker's goroutine to dispatch.
type found struct {
	kind    foundKind
	entry   []byte   // foundLocal
	obj     any      // foundLocal
	entries [][]byte // foundStolen, oldest first (victim and start are in the Worker)
	objs    []any    // foundStolen
}

type foundKind uint8

const (
	foundNothing foundKind = iota // runOne's pop and steal attempt both missed
	foundDone                     // the run is over
	foundRoot                     // the closed system's initial task waits in w.rootTask
	foundRequest                  // the inbox holds an open-system request
	foundLocal                    // an entry popped from the worker's own deque
	foundStolen                   // a batch stolen from w.victim
	foundWaiter                   // the wait queue holds a thread to resume
	foundCollect                  // the periodic lock-queue drain is due
)

// schedule is the scheduler loop of one worker (the paper's "scheduler
// context") under every policy. It runs whenever no user thread occupies the
// worker:
//
//  0. start a newly arrived open-system request (serve mode);
//  1. pop the local deque (ready continuations / resume descriptors /
//     not-yet-started child tasks) — LIFO;
//  2. otherwise steal from a victim chosen by Config.Steal — FIFO at the
//     victim (seek covers 1 and 2);
//  3. after a failed steal, resume a thread from the wait queue in
//     round-robin order (stalling join, §III-A1);
//  4. periodically drain the incoming remote-free queue (LockQueue mode);
//  5. doze on the arrival doorbell (quiescent open system) or back off.
//
// Looking for work — look, seek, idle, rest and the callbacks between them —
// is written in continuation form (sim.Proc.SleepThen) and runs inside the
// engine's event dispatch: an idle worker's pop miss, failed steal and
// backoff, repeated for as long as there is nothing to do, never reach this
// goroutine. It is resumed from Await only with something to dispatch in
// w.found, and does the dispatching: everything that starts or resumes a
// thread, pushes, migrates a stack or drains the lock queue blocks as a proc.
//
// Run-to-completion child stealing (ChildRtC) is this same loop with tasks
// executed as plain function calls on the scheduler's own stack (runInline)
// instead of being handed the worker. Its wait queue is always empty, and its
// buried joins and Yield call runOne directly — "the scheduler function called
// directly on top of its stack" (§IV-B).
func (w *Worker) schedule(p *sim.Proc) {
	if w.rootTask != nil {
		w.found.kind = foundRoot
	} else {
		w.look()
	}
	for {
		p.Await()
		f := w.takeFound()
		switch f.kind {
		case foundDone:
			return
		case foundCollect:
			w.rt.objs.Collect(p, w.rank)
			w.rest()
			continue
		}
		w.run(p, f)
		w.look()
	}
}

// takeFound empties w.found into the goroutine's hands: what it dispatches
// may look for work again, on this worker, before it returns (ChildRtC).
func (w *Worker) takeFound() found {
	f := w.found
	w.found = found{}
	return f
}

// look is the top of the scheduler loop: steps 0–2.
func (w *Worker) look() {
	switch {
	case w.rt.done:
		w.found.kind = foundDone
	case w.inbox.len() > 0:
		// 0. Newly arrived open-system requests (serve mode). The inbox is
		//    fed by arrival timers and — unlike the deque — is invisible to
		//    thieves, so it is served before stealable local work.
		w.found.kind = foundRequest
	default:
		w.seek(w.onIdle)
	}
}

// seek is steps 1 and 2: local work first (greedy: ready tasks run
// immediately), else one steal attempt. It ends with the proc running and
// w.found set, or — nothing popped, nothing stolen — in miss, if there is one.
func (w *Worker) seek(miss func()) {
	w.miss = miss
	w.dq.PopThen(w.proc, w.onPopped)
}

func (w *Worker) popped(entry []byte, obj any, ok bool) {
	if ok {
		w.found = found{kind: foundLocal, entry: entry, obj: obj}
		return
	}
	w.trySteal()
}

// missed ends a seek that found nothing.
func (w *Worker) missed() {
	if w.miss != nil {
		w.miss()
	}
}

// idle is steps 3 and 4 of the scheduler loop, after a seek that missed.
func (w *Worker) idle() {
	switch {
	case w.waitQ.len() > 0:
		// 3. Wait-queue round robin on failed steals.
		w.found.kind = foundWaiter
	case w.shouldCollect():
		// 4. Periodic remote-object collection (only when the failed-steal
		// counter has advanced to a new multiple — see shouldCollect).
		w.found.kind = foundCollect
	default:
		w.rest()
	}
}

// rest is step 5 of the scheduler loop.
func (w *Worker) rest() {
	// Quiescent open system: no task exists anywhere, so the only possible
	// new work is a future arrival — park on the doorbell (injection wakes
	// every dozer) instead of polling, and restart the backoff regime on
	// wake-up: an arrival is a new load regime. The !done check matters: the
	// run can end while this worker is inside an iteration (mid-steal), after
	// the final wake already fired.
	if s := w.rt.serve; s != nil && !w.rt.done && s.quiescent() {
		s.doze(w)
		w.proc.ParkThen(w.onWoken)
		return
	}
	w.proc.SleepThen(w.idleDelay(), w.onLook)
}

func (w *Worker) woken() {
	w.failStreak = 0
	w.look()
}

// run dispatches what the idle cycle found, reporting whether that was
// anything. Whatever it dispatched to a thread took the worker with it (see
// the hand-over contract in thread.go): the scheduler's one park, until
// toScheduler gives the worker back, is here.
func (w *Worker) run(p *sim.Proc, f found) bool {
	switch f.kind {
	case foundRoot:
		w.startRoot(p, w.rootTask, nil)
	case foundRequest:
		r := w.inbox.pop()
		// New work arrived from outside: leave the idle-backoff regime (work
		// does not only ever shrink in an open system).
		w.failStreak = 0
		w.startRoot(p, r.Fn, r)
	case foundWaiter:
		t := w.waitQ.pop()
		w.st.WaitQResumes++
		// A resume is real work: reset the backoff streak so the worker
		// re-enters the idle loop at the base delay. Without this, a
		// streak built before a busy wait-queue period persists across
		// it, and the worker sleeps up to the max backoff before
		// noticing late open-system arrivals (or freshly pushed work).
		w.failStreak = 0
		w.resume(p, t)
	case foundLocal:
		w.failStreak = 0
		w.dispatch(p, f.entry, f.obj, nil)
	case foundStolen:
		// The surplus of a batch is requeued into this worker's own deque in
		// protocol (oldest-first) order, so later thieves still see the
		// oldest work first while the owner pops the newest — and stolen
		// continuation stacks migrate lazily on first resume via the
		// stolen-in-deque case of bringTo (uni-address frees by exact
		// address, so out-of-order release is safe).
		for i := 1; i < len(f.entries); i++ {
			w.dq.Push(p, f.entries[i], f.objs[i])
			w.st.SurplusStolen++
		}
		w.dispatch(p, f.entries[0], f.objs[0], w.victim)
	default:
		return false
	}
	if w.top().t != nil {
		p.Park()
	}
	return true
}

// runOne pops or — failing that — steals one task and runs it, reporting
// whether it found one: a seek for a blocking caller. It is the whole
// scheduler of a ChildRtC buried join or Yield, which may still be calling
// after the run has ended (an unjoined task outliving the root).
func (w *Worker) runOne(p *sim.Proc) bool {
	if w.rt.done {
		return false
	}
	w.seek(nil)
	p.Await()
	return w.run(p, w.takeFound())
}

// startRoot launches a root task on this worker — the closed system's initial
// task, or the open-system request r — in the policy's shape: a continuation
// thread, a tied child thread, or (ChildRtC) a plain call on this stack.
func (w *Worker) startRoot(p *sim.Proc, fn TaskFunc, r *Request) {
	rt := w.rt
	var tag int64
	if r != nil {
		tag = r.ID + 1
		rt.traceEvent(obs.Event{T: p.Now(), Rank: w.rank, Kind: obs.KindServeStart, Task: -1, Peer: -1, Req: tag})
	}
	var t *Thread
	switch {
	case rt.cfg.Policy == ChildRtC:
		root := &childTask{fn: fn, id: -1, reqTag: tag}
		if r != nil {
			// The request root is not a Thread here, but it still needs a
			// task id for the trace (allocated unconditionally so ids are
			// stable whether or not tracing is on).
			rt.childSeq++
			root.id = rt.childSeq
		}
		w.runInline(p, root, r)
		return
	case rt.cfg.Policy.Continuation():
		t = newContThread(w, fn, Handle{}, -1, true)
	default:
		t = rt.newThread(w, fn, Handle{})
		t.isChildTask, t.isRoot = true, true
	}
	t.req, t.reqTag = r, tag
	w.setCurrent(t)
	t.start()
}

// pickVictim selects a steal victim according to Config.Steal.Victim.
// Returns nil when there is no one to steal from. The default (uniform)
// branch is the paper's policy and consumes exactly the RNG draws of the
// pre-seam runtime: uniformly random among the other workers.
func (w *Worker) pickVictim() *Worker {
	n := len(w.rt.workers)
	if n < 2 {
		return nil
	}
	switch w.rt.cfg.Steal.Victim {
	case VictimHier:
		return w.pickVictimHier(n)
	case VictimLocality:
		return w.pickVictimLocality(n)
	}
	return w.uniformVictim(n)
}

// uniformVictim draws a victim uniformly among the other n-1 workers — the
// shared fallback of every victim policy, and the whole of the default one.
func (w *Worker) uniformVictim(n int) *Worker {
	v := w.rng.Intn(n - 1)
	if v >= w.rank {
		v++
	}
	return w.rt.workers[v]
}

// pickVictimHier implements intra-node-first hierarchical stealing: while
// the failed-steal streak is below hierEscalateAfter, probe a random rank of
// this worker's own node (intra-node protocol ops are cheap); once the node
// looks drained, escalate to a uniform probe over the cluster.
func (w *Worker) pickVictimHier(n int) *Worker {
	mach := w.rt.cfg.Machine
	if mach.CoresPerNode > 1 && w.failStreak < hierEscalateAfter {
		node := mach.NodeOf(w.rank)
		lo := node * mach.CoresPerNode
		hi := lo + mach.CoresPerNode
		if hi > n {
			hi = n
		}
		if hi-lo > 1 {
			v := lo + w.rng.Intn(hi-lo-1)
			if v >= w.rank {
				v++
			}
			return w.rt.workers[v]
		}
	}
	return w.uniformVictim(n)
}

// pickVictimLocality implements owner-aware stealing: re-probe the rank of
// the last successful steal (tasks spawned there keep their uni-address
// stacks and descendants there, so re-stealing from it moves related work
// together). Falls back to uniform when no affinity is live; stealFailed
// drops the affinity when the probe comes back empty.
func (w *Worker) pickVictimLocality(n int) *Worker {
	if v := w.lastVictim; v >= 0 && v < n && v != w.rank {
		return w.rt.workers[v]
	}
	return w.uniformVictim(n)
}

// dispatch runs a descriptor popped from the worker's own deque (victim nil)
// or stolen from victim's, in which case it also books the steal, once the
// task is about to be handed the worker: a stolen continuation's payload is
// its stack, which resume migrates (Fig. 2 step 3); a stolen child task's
// descriptor ("function pointer and arguments") was transferred by the deque
// protocol itself, and its payload portion is accounted here.
func (w *Worker) dispatch(p *sim.Proc, entry []byte, obj any, victim *Worker) {
	switch entryKind(entry) {
	case entCont, entResume:
		t := obj.(*Thread)
		copyTime := w.resume(p, t)
		if victim != nil {
			w.stealSucceeded(t.id, victim.rank, int64(t.stackSize), t.reqTag, copyTime)
		}
	case entChild:
		ct := obj.(*childTask)
		if victim != nil {
			copyTime := w.rt.cfg.Machine.OneSided(w.rank, victim.rank, childTaskBytes, false)
			w.stealSucceeded(ct.id, victim.rank, childTaskBytes, ct.reqTag, copyTime)
		}
		if w.rt.cfg.Policy == ChildRtC {
			w.runInline(p, ct, nil)
		} else {
			w.startChildTask(p, ct)
		}
	default:
		panic("core: unknown deque entry kind")
	}
}

// trySteal is the worker's one steal attempt: pick a victim and run the
// deque's steal chain against it — taking one entry, or under the steal-half
// policy half of those observed under the lock (stealHalf); stole books the
// attempt either way. With no victim, or one that was empty or contended, the
// seek has missed.
//
// The chain window is measured before the surplus of a batch is requeued (see
// run), keeping it comparable across amounts; the steal span (stealSucceeded)
// still covers the full window including the requeue, so Σ steal spans ==
// Work.StealLatency holds under every policy.
func (w *Worker) trySteal() {
	w.victim = w.pickVictim()
	if w.victim == nil {
		w.missed()
		return
	}
	var take func(avail int64) int64 // nil: the plain steal of one entry
	if w.rt.cfg.Steal.Amount == StealHalf {
		take = stealHalf
	}
	w.stealStart = w.rt.eng.Now()
	w.victim.dq.StealNThen(w.proc, w.rank, take, w.onStole)
}

func (w *Worker) stole(entries [][]byte, objs []any, ok bool) {
	chain := w.rt.eng.Now() - w.stealStart
	if !ok {
		w.stealFailed(w.victim, w.stealStart, chain)
		w.missed()
		return
	}
	if w.rt.ob != nil {
		w.rt.ob.chainSteal.Observe(chain)
	}
	w.found = found{kind: foundStolen, entries: entries, objs: objs}
}

// stealHalf is the StealN take function of the steal-half policy: half of
// the entries available under the lock, rounded up (at least one).
func stealHalf(avail int64) int64 { return (avail + 1) / 2 }

// stealSucceeded books a successful steal — count, Table II payload size and
// copy time, latency and trace span in one place, once the stack has arrived,
// so a run cut while it migrates has none of them. The latency runs from the
// first protocol op to the task being handed the worker, the same window the
// trace span covers, so Σ steal span durations == Work.StealLatency exactly.
func (w *Worker) stealSucceeded(task int64, victim int, size, req int64, copyTime sim.Time) {
	w.st.StealsOK++
	w.st.StolenBytes += uint64(size)
	w.st.TaskCopyTime += copyTime
	w.failStreak = 0
	if w.rt.cfg.Steal.Victim == VictimLocality {
		w.lastVictim = victim
	}
	lat := w.rt.eng.Now() - w.stealStart
	w.st.StealLatency += lat
	if w.rt.ob != nil {
		w.rt.ob.stealLat.Observe(lat)
	}
	w.rt.traceEvent(obs.Event{T: w.stealStart, Rank: w.rank, Kind: obs.KindSteal, Task: task, Peer: victim, Size: size, Req: req})
}

// stealFailed books a failed attempt: the protocol chain window is the
// steal-search time and becomes a steal.fail trace span over that window,
// so Σ steal.fail durations == Work.StealSearchTime exactly.
func (w *Worker) stealFailed(victim *Worker, start sim.Time, chain sim.Time) {
	w.failStreak++
	if w.rt.cfg.Steal.Victim == VictimLocality && victim.rank == w.lastVictim {
		w.lastVictim = -1
	}
	w.st.StealsFail++
	w.st.StealSearchTime += chain
	if w.rt.ob != nil {
		w.rt.ob.chainFail.Observe(chain)
	}
	w.rt.traceEvent(obs.Event{T: start, Rank: w.rank, Kind: obs.KindStealFail, Task: -1, Peer: victim.rank})
}

// startChildTask begins a stolen or locally popped child task as a fully
// fledged thread: it gets its own (32 KiB) stack and may suspend at joins,
// but is tied to this worker forever after.
func (w *Worker) startChildTask(p *sim.Proc, ct *childTask) {
	rt := w.rt
	t := rt.newThread(w, ct.fn, ct.hdl)
	t.isChildTask, t.reqTag = true, ct.reqTag
	// Stack allocation plus the switch onto it.
	p.Sleep(rt.cfg.Machine.AllocCost + rt.cfg.Machine.CtxSwitch)
	w.setCurrent(t)
	t.start()
}

// runInline executes a task as an ordinary nested function call on the
// scheduler's stack (ChildRtC) and completes it: a child task into its entry,
// the request root r into the serve books, the closed system's root — task −1,
// which has no run span and is not counted — into the run's result.
func (w *Worker) runInline(p *sim.Proc, ct *childTask, r *Request) {
	rt := w.rt
	w.push(nil, ct.id, ct.reqTag) // over the task whose buried join or Yield runs ct, if any
	c := &Ctx{rt: rt, w: w, p: p}
	ret := ct.fn(c)
	switch {
	case ct.hdl.Valid():
		rt.complete(c, ct.hdl, ret)
		w.st.Tasks++
	case r != nil:
		w.st.Tasks++
		rt.requestDone(w, r)
	default:
		rt.finish(ret)
	}
	w.pop()
}

// fifo is a first-in first-out queue that keeps its backing array. A pop
// advances the head; a push onto a full array first moves the queued
// entries down to the front when at least half of the array has been
// popped, so the array grows only when more than half of it is queued.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	return v
}
