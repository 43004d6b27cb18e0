package core

import (
	"fmt"

	"contsteal/internal/rdma"
	"contsteal/internal/sim"
)

// This file implements the paper's synchronization algorithms, each step
// written once (DESIGN.md "Task lifecycle" maps the pseudocode's lines here):
//
//   - die                      — DIE of Fig. 3 (stalling join; also child
//     stealing with Full threads), and the prologue of Fig. 4's
//   - dieGreedy / joinGreedy   — Fig. 4 (greedy join over RDMA), the join
//     including its multi-consumer extension of §V-D
//   - dieFutureGreedy          — DIE of the multi-consumer extension
//   - joinPoll                 — JOIN of Fig. 3 (also ChildFull, whose joins
//     likewise poll and park)
//   - joinRtC                  — run-to-completion child stealing, where an
//     unresolved join calls the scheduler on top of its own stack
//
// Every get/put/fetch_and_add below is a simulated one-sided operation
// charged with the machine model's latency; the control flow is a direct
// transcription of the paper's pseudocode.

// flagWord returns the location of the completion flag: offset 0 in both
// entry layouts (seFlag for single-consumer, meDone for multi-consumer), and
// of the race word of a multi-consumer entry's consumer slot, which is laid
// out like the head of a single-consumer entry: {seFlag, seCtxloc}.
func flagWord(e rdma.Loc) rdma.Loc { return field(e, seFlag, 8) }

// completed polls the joined task's completion flag (Fig. 3 lines 13 and 18,
// Fig. 4 line 42).
func (rt *Runtime) completed(c *Ctx, h Handle) bool {
	return rt.fab.GetInt64(c.p, c.worker().rank, flagWord(h.E)) != 0
}

// die ends a thread in two steps: its result goes where the joiners will look
// for it, then its worker goes to whoever runs next under the policy.
func (rt *Runtime) die(c *Ctx, ret []byte) {
	t, p := c.t, c.p
	w, h, greedy := t.w, t.hdl, rt.cfg.Policy == ContGreedy
	w.st.Tasks++
	switch {
	case rt.cfg.Policy == ChildRtC:
		panic("core: unexpected die dispatch")
	case t.isRoot && t.req != nil:
		rt.requestDone(w, t.req) // open-system request root (serve mode)
	case t.isRoot:
		rt.finish(ret)
	case greedy:
		rt.putRetval(c, h, ret) // Fig. 4 line 27; the flag is raced on below
	default:
		rt.complete(c, h, ret) // Fig. 3 lines 5-6
	}
	t.retire()
	switch {
	case t.isRoot, rt.cfg.Policy == ChildFull:
		// No continuation to pop: a root has no parent, and under child
		// stealing the parent kept running at spawn time.
		w.toScheduler()
	case greedy && h.Consumers > 1:
		rt.dieFutureGreedy(c)
	case greedy:
		rt.dieGreedy(c) // recycles t at its end, which may come in dispatch
		return
	default:
		w.passTo(p, w.popNext(p, t)) // Fig. 3 lines 7-11
	}
	t.recycle()
}

// putRetval writes the task's return value into its entry (Fig. 4 line 27).
func (rt *Runtime) putRetval(c *Ctx, h Handle, ret []byte) {
	if len(ret) == 0 {
		return
	}
	if len(ret) > rt.cfg.RetvalBytes {
		panic(fmt.Sprintf("core: retval of %d bytes exceeds RetvalBytes=%d", len(ret), rt.cfg.RetvalBytes))
	}
	loc := rt.retvalLoc(h)
	loc.Size = int32(len(ret))
	rt.fab.Put(c.p, c.worker().rank, loc, ret)
}

// complete publishes a finished task where no joiner can be racing for its
// flag: the return value, then a plain put of the flag (Fig. 3 lines 5-6).
func (rt *Runtime) complete(c *Ctx, h Handle, ret []byte) {
	rt.putRetval(c, h, ret)
	rt.fab.PutInt64(c.p, c.worker().rank, flagWord(h.E), 1)
	rt.joinCompleted(h.E)
}

// takeResult is the epilogue of every join: read the joined task's return
// value into ret (Fig. 3 line 19, Fig. 4 line 51) and release the entry (line
// 20 / 52) — immediately for a single consumer (FREEREMOTE); for
// multi-consumer futures the last of the declared consumers frees it.
func (rt *Runtime) takeResult(c *Ctx, h Handle, ret []byte) []byte {
	w, p := c.worker(), c.p
	rt.fab.Get(p, w.rank, rt.retvalLoc(h), ret)
	if h.Consumers > 1 {
		if old := rt.fab.FetchAdd(p, w.rank, field(h.E, meConsumed, 8), 1); old != int64(h.Consumers)-1 {
			return ret
		}
	}
	rt.freeEntry(c, h)
	return ret
}

// freeEntry releases a consumed entry, timing remote frees (FREEREMOTE,
// §III-B) for the chain.free.remote histogram: a LockQueue free blocks for
// its lock round trips, a LocalCollection free is one non-blocking put.
func (rt *Runtime) freeEntry(c *Ctx, h Handle) {
	w, p := c.worker(), c.p
	start := p.Now()
	rt.objs.Free(p, w.rank, h.E)
	if rt.ob != nil && int(h.E.Rank) != w.rank {
		rt.ob.chainFree.Observe(p.Now() - start)
	}
	rt.dropJoinInfo(h.E)
}

// popNext pops the local deque for the thread that runs after the dying t
// (Fig. 3 line 7, Fig. 4 line 28). Stalling join takes whatever is on top.
// Greedy join takes only t's own parent, and only while its stack is still
// here — under steal-half a requeued surplus continuation in our own deque
// may have its stack at the original victim, and with futures the top may be
// some other ready task (e.g. a resume descriptor): those are put back, to go
// through the scheduler's normal resume path. The pop runs in continuation
// form (diePopped), as it does for greedy join's single-consumer die, whose
// body returns into it instead of waiting here (dieGreedy).
func (w *Worker) popNext(p *sim.Proc, t *Thread) *Thread {
	w.dq.PopThen(p, t.onPopped)
	p.Await()
	next := t.next
	t.next = nil
	return next
}

// diePopped is the pop of a dying thread t, run inside event dispatch as t,
// which leaves what runs next in t.next. Greedy join puts anything but t's
// own parent back (a blocking push's worth of time, in continuation form).
// When the parent is there, t is a single-consumer task and its flag word is
// on this rank, the die ends here: the work-first fast path (Fig. 4 lines
// 29-31) and t's recycling, then the proc's end — its coroutine is not
// resumed for the die at all (see dieGreedy).
func (t *Thread) diePopped(entry []byte, obj any, ok bool) {
	if !ok {
		return
	}
	w, h, p, rt := t.w, t.hdl, t.proc, t.rt
	next := obj.(*Thread)
	if rt.cfg.Policy == ContGreedy {
		if !w.ownParent(t, entry, next) {
			w.dq.PushThen(p, entry, obj, nil)
			return
		}
		if flag := flagWord(h.E); h.Consumers <= 1 && int(flag.Rank) == w.rank {
			// The parent has not been stolen: the join is guaranteed to
			// happen after this die, so a plain (non-atomic) put suffices —
			// on this rank, so it completes at once and never suspends p.
			rt.fab.PutInt64(p, w.rank, flag, 1) // line 30
			rt.joinedFast(w, h, next)
			t.recycle()
			p.Exit()
			return
		}
	}
	t.next = next
}

// ownParent reports whether next, popped from w's deque as entry, is t's
// parent with its stack on w: the one continuation greedy join's die takes.
func (w *Worker) ownParent(t *Thread, entry []byte, next *Thread) bool {
	return entryKind(entry) == entCont && next.id == t.parentID && next.w == w
}

// passTo ends the dying thread's tenure of w: the worker goes to next, a
// continuation popped from w's own deque, or — there was none — back to the
// scheduler (Fig. 3 lines 8-11).
func (w *Worker) passTo(p *sim.Proc, next *Thread) {
	switch {
	case next == nil:
		w.toScheduler() // line 11
	case next.w != w:
		// Requeued steal-half surplus: stack still at the original victim;
		// migrate it in before running (never hit by the default steal-one
		// policy, where own-deque stacks are local).
		w.resume(p, next)
	default:
		w.handoff(next) // line 9: resume nextThread.context
	}
}

// fetchWaiter brings over and frees the context a suspended joiner published
// in slot — an entry's, or one consumer slot's, {race word, ctxloc} pair
// (Fig. 4 lines 37-39) — and returns the joiner.
func (rt *Runtime) fetchWaiter(c *Ctx, slot rdma.Loc) *Thread {
	w, p := c.worker(), c.p
	var cb [rdma.LocSize]byte
	rt.fab.Get(p, w.rank, field(slot, seCtxloc, rdma.LocSize), cb[:]) // line 37
	cloc := rdma.DecodeLoc(cb[:])
	ctx := make([]byte, ctxObjBytes)
	rt.fab.Get(p, w.rank, cloc, ctx) // line 38
	tj := rt.loadContext(ctx)
	rt.objs.Free(p, w.rank, cloc) // line 39
	return tj
}

// ---------------------------------------------------------------------------
// Greedy join (Fig. 4) and its multi-consumer extension (§V-D)
// ---------------------------------------------------------------------------

// dieGreedy is the DIE function of Fig. 4 from line 28 on, for a single
// consumer. Work-first fast path (lines 28-31): try to pop the parent. The
// thread's body returns into the pop (sim.Proc.AwaitThen): with the flag word
// on this rank, diePopped ends the die there, inside dispatch; otherwise
// dieRest runs on the thread's coroutine.
func (rt *Runtime) dieGreedy(c *Ctx) {
	t, p := c.t, c.p
	t.w.dq.PopThen(p, t.onPopped)
	p.AwaitThen(t.onDieRest)
}

// dieRest is the rest of dieGreedy after a pop that did not end it, then t's
// recycling.
func (t *Thread) dieRest(p *sim.Proc) {
	rt, w, h := t.rt, t.w, t.hdl
	switch parent := t.next; {
	case parent != nil:
		// The parent has not been stolen, and the flag word is on another
		// rank: a plain put still suffices, as the join must follow.
		rt.fab.PutInt64(p, w.rank, flagWord(h.E), 1) // line 30
		rt.joinedFast(w, h, parent)
	default:
		// Slow path (lines 32-40): the parent has been stolen.
		w.st.JoinSlowPath++
		f := rt.fab.FetchAdd(p, w.rank, flagWord(h.E), 1) // line 33
		rt.joinCompleted(h.E)
		if f == 0 {
			// The joined thread won the race (lines 34-35).
			w.toScheduler()
			break
		}
		// The joined thread lost: the joiner is already suspended. Fetch
		// its context and resume its continuation here (lines 36-40) — this
		// is the thread migration at a join that stalling join cannot do.
		w.resume(p, rt.fetchWaiter(&t.ctx, h.E))
	}
	t.recycle()
}

// joinedFast ends the fast path once the flag is set: the worker goes to the
// parent (line 31), like an ordinary subroutine return.
func (rt *Runtime) joinedFast(w *Worker, h Handle, parent *Thread) {
	rt.joinCompleted(h.E)
	w.st.JoinFastPath++
	w.handoff(parent)
}

// joinGreedy is the JOIN function of Fig. 4 up to line 50, for the single
// consumer of the figure and for the consumers of a §V-D future alike: they
// differ only in where the joiner publishes its context and which word it
// races the joined thread on — the entry's own {flag, ctxloc} pair, or one of
// the entry's consumer slots, claimed by fetch-and-add on the slot counter.
func (rt *Runtime) joinGreedy(c *Ctx, h Handle) {
	t, p := c.t, c.p
	w := t.w
	if rt.completed(c, h) { // line 42
		return
	}
	// suspend context do (lines 44-50)
	t.evacuate(p)
	cloc := w.saveContext(p, t)
	slot := h.E
	if h.Consumers > 1 {
		i := rt.fab.FetchAdd(p, w.rank, field(h.E, meSlotCtr, 8), 1)
		if i >= int64(h.Consumers) {
			panic(fmt.Sprintf("core: future joined by more than its %d declared consumers", h.Consumers))
		}
		slot = field(h.E, meSlots+int(i)*slotStride, slotStride)
	}
	var cb [rdma.LocSize]byte
	rdma.EncodeLoc(cb[:], cloc)
	rt.fab.Put(p, w.rank, field(slot, seCtxloc, rdma.LocSize), cb[:]) // line 45
	t.suspended(p, h.E)
	if rt.fab.FetchAdd(p, w.rank, flagWord(slot), 1) == 0 { // line 46
		// The joining thread won the race (lines 47-48): this worker becomes
		// a thief; the suspended thread will be resumed — and migrated — by
		// whoever completes the joined thread. Execution continues after
		// release on (possibly) another worker.
		t.release(p)
		return
	}
	// Lost the race (lines 49-50): the joined thread completed in between;
	// resume our own context immediately, restoring the just-evacuated stack.
	delete(rt.saved, t.id)
	rt.objs.Free(p, w.rank, cloc)
	w.restore(p, t)
}

// dieFutureGreedy completes a multi-consumer future: set the done flag,
// then visit every consumer slot with an atomic +2; slots observed in state
// 1 hold suspended waiters. The first waiter is resumed immediately; the
// others are pushed into the local task queue (and are thus stealable), as
// described in §V-D.
func (rt *Runtime) dieFutureGreedy(c *Ctx) {
	t, p := c.t, c.p
	w, h := t.w, t.hdl
	rt.fab.PutInt64(p, w.rank, flagWord(h.E), 1) // done: later joiners skip suspension
	var waiters []*Thread
	for i := 0; i < int(h.Consumers); i++ {
		slot := field(h.E, meSlots+i*slotStride, slotStride)
		if rt.fab.FetchAdd(p, w.rank, flagWord(slot), 2) == 1 {
			waiters = append(waiters, rt.fetchWaiter(c, slot))
		}
	}
	rt.joinCompleted(h.E)
	if len(waiters) == 0 {
		w.passTo(p, w.popNext(p, t))
		return
	}
	// Push all but the first waiter as stealable resume descriptors.
	for _, other := range waiters[1:] {
		var buf [contEntrySize]byte
		encodeContEntry(buf[:], entResume, other)
		w.dq.Push(p, buf[:], other)
	}
	w.resume(p, waiters[0])
}

// ---------------------------------------------------------------------------
// Stalling join (Fig. 3) — also the join of child stealing (Full threads)
// ---------------------------------------------------------------------------

// joinPoll is the JOIN function of Fig. 3 up to line 18: poll the flag; while
// unset, park in the worker's wait queue and let the scheduler run. Used by
// ContStalling and by ChildFull (whose threads are tied: they re-enter the
// same worker's wait queue and never migrate).
func (rt *Runtime) joinPoll(c *Ctx, h Handle) {
	t, p := c.t, c.p
	for !rt.completed(c, h) { // lines 13-14, and 18 after a resume
		// suspend context do (lines 15-17)
		t.evacuate(p)
		t.suspended(p, h.E)
		t.w.waitQ.push(t) // line 16: PUSHTOWAITQUEUE
		t.release(p)      // line 17
		// Resumed round-robin by the scheduler after a failed steal.
	}
}

// joinRtC is the join of run-to-completion child stealing: an unresolved
// join calls the scheduler function directly on top of its own stack,
// executing other tasks inline. The join is "buried" beneath whatever those
// tasks do until they return (§IV-B).
func (rt *Runtime) joinRtC(c *Ctx, h Handle) {
	w, p := c.w, c.p
	if rt.completed(c, h) {
		return
	}
	rt.joinSuspended(h.E)
	for {
		if !w.runOne(p) {
			p.Sleep(idleBackoff)
		}
		if rt.completed(c, h) {
			break
		}
	}
	rt.joinResumed(w, h.E, -1, w.top().req) // buried join: no thread identity
}
