package core

import (
	"fmt"

	"contsteal/internal/obs"
	"contsteal/internal/rdma"
)

// This file implements the paper's synchronization algorithms:
//
//   - dieGreedy / joinGreedy       — Fig. 4 (greedy join over RDMA)
//   - dieStalling / joinPoll       — Fig. 3 (stalling join; also used by
//     child stealing with Full threads, whose joins likewise poll and park)
//   - joinRtC                      — run-to-completion child stealing, where
//     an unresolved join calls the scheduler on top of its own stack
//   - dieFutureGreedy / joinFutureGreedy — the multi-consumer future
//     extension of §V-D
//
// Every get/put/fetch_and_add below is a simulated one-sided operation
// charged with the machine model's latency; the control flow is a direct
// transcription of the paper's pseudocode.

// flagWord returns the location of the completion flag: offset 0 in both
// entry layouts (seFlag for single-consumer, meDone for multi-consumer).
func flagWord(e rdma.Loc) rdma.Loc { return field(e, 0, 8) }

// die dispatches a completed task to the policy's DIE implementation.
func (rt *Runtime) die(c *Ctx, ret []byte) {
	t := c.t
	t.w.st.Tasks++
	if t.isRoot {
		if t.req != nil {
			rt.requestDone(t.w, t.req) // open-system request root (serve mode)
		} else {
			rt.finish(ret)
		}
		t.releaseStack()
		t.state = tDead
		t.w.toScheduler()
		return
	}
	switch {
	case rt.cfg.Policy == ContGreedy && t.hdl.Consumers > 1:
		rt.dieFutureGreedy(c, ret)
	case rt.cfg.Policy == ContGreedy:
		rt.dieGreedy(c, ret)
	case rt.cfg.Policy == ContStalling:
		rt.dieStalling(c, ret)
	case rt.cfg.Policy == ChildFull:
		rt.dieChildFull(c, ret)
	default:
		panic("core: unexpected die dispatch")
	}
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

// getRetval reads the joined task's return value (Fig. 4 line 51).
func (rt *Runtime) getRetval(c *Ctx, h Handle) []byte {
	buf := make([]byte, rt.cfg.RetvalBytes)
	rt.fab.Get(c.p, c.worker().rank, rt.retvalLoc(h), buf)
	return buf
}

// consumeEntry releases the entry after a join: immediately for a single
// consumer (FREEREMOTE, Fig. 4 line 52); for multi-consumer futures the
// last of the declared consumers frees it.
func (rt *Runtime) consumeEntry(c *Ctx, h Handle) {
	w, p := c.worker(), c.p
	if h.Consumers <= 1 {
		rt.freeEntry(c, h)
		return
	}
	old := rt.fab.FetchAdd(p, w.rank, field(h.E, meConsumed, 8), 1)
	if old == int64(h.Consumers)-1 {
		rt.freeEntry(c, h)
	}
}

// freeEntry releases a consumed entry, timing remote frees (FREEREMOTE,
// §III-B) for the chain.free.remote histogram: a LockQueue free blocks for
// its lock round trips, a LocalCollection free is one non-blocking put.
func (rt *Runtime) freeEntry(c *Ctx, h Handle) {
	w, p := c.worker(), c.p
	if w.ob != nil && int(h.E.Rank) != w.rank {
		start := p.Now()
		rt.objs.Free(p, w.rank, h.E)
		w.ob.chainFree.Observe(p.Now() - start)
	} else {
		rt.objs.Free(p, w.rank, h.E)
	}
	rt.dropJoinInfo(h.E)
}

// ---------------------------------------------------------------------------
// Greedy join (Fig. 4)
// ---------------------------------------------------------------------------

// dieGreedy is the DIE function of Fig. 4.
func (rt *Runtime) dieGreedy(c *Ctx, ret []byte) {
	t, p := c.t, c.p
	w := t.w
	h := t.hdl
	rt.putRetval(c, h, ret) // line 27
	t.releaseStack()
	t.state = tDead

	// Work-first fast path (lines 28-31): try to pop the parent. The
	// popped.w == w check guards the handoff's no-migration assumption:
	// under steal-half a requeued surplus continuation in our own deque may
	// still have its stack at the original victim, and must go through the
	// normal resume path (bringTo) instead.
	if entry, obj, ok := w.dq.Pop(p); ok {
		popped, isThread := obj.(*Thread)
		if isThread && entryKind(entry) == entCont && popped.id == t.parentID && popped.w == w {
			// The parent has not been stolen: the join is guaranteed to
			// happen after this die, so a plain (non-atomic) put suffices.
			rt.fab.PutInt64(p, w.rank, flagWord(h.E), 1) // line 30
			rt.joinCompleted(h.E)
			w.st.JoinFastPath++
			w.handoff(popped) // line 31: like an ordinary subroutine return
			return
		}
		// With futures the top of the deque may be some other ready task
		// (e.g. a resume descriptor). Put it back and race normally.
		w.dq.Push(p, entry, obj)
	}

	// Slow path (lines 32-40): the parent has been stolen.
	w.st.JoinSlowPath++
	f := rt.fab.FetchAdd(p, w.rank, flagWord(h.E), 1) // line 33
	rt.joinCompleted(h.E)
	if f == 0 {
		// The joined thread won the race (lines 34-35).
		w.toScheduler()
		return
	}
	// The joined thread lost: the joiner is already suspended. Fetch its
	// context and resume its continuation here (lines 36-40) — this is the
	// thread migration at a join that stalling join cannot do.
	var cb [rdma.LocSize]byte
	rt.fab.Get(p, w.rank, field(h.E, seCtxloc, rdma.LocSize), cb[:]) // line 37
	cloc := rdma.DecodeLoc(cb[:])
	ctx := make([]byte, ctxObjBytes)
	rt.fab.Get(p, w.rank, cloc, ctx) // line 38
	tj := rt.loadContext(ctx)
	rt.objs.Free(p, w.rank, cloc) // line 39
	w.resume(p, tj)               // line 40
}

// joinGreedy is the JOIN function of Fig. 4 (single consumer).
func (rt *Runtime) joinGreedy(c *Ctx, h Handle) []byte {
	t, p := c.t, c.p
	w := t.w
	f := rt.fab.GetInt64(p, w.rank, flagWord(h.E)) // line 42
	if f == 0 {
		// suspend context do (lines 44-50)
		t.evacuate(p)
		cloc := w.saveContext(p, t)
		var cb [rdma.LocSize]byte
		rdma.EncodeLoc(cb[:], cloc)
		rt.fab.Put(p, w.rank, field(h.E, seCtxloc, rdma.LocSize), cb[:]) // line 45
		t.state = tSuspended
		t.waitingOn = h.E
		rt.joinSuspended(h.E)
		rt.traceEvent(obs.Event{T: p.Now(), Rank: w.rank, Kind: obs.KindSuspend, Task: t.id, Peer: -1, Req: t.reqTag})
		f2 := rt.fab.FetchAdd(p, w.rank, flagWord(h.E), 1) // line 46
		if f2 == 0 {
			// The joining thread won the race (lines 47-48): this worker
			// becomes a thief; the suspended thread will be resumed — and
			// migrated — by whoever completes the joined thread.
			p.Sleep(rt.cfg.Machine.CtxSwitch)
			w.toScheduler()
			t.parkSelf(p)
			// Execution continues here on (possibly) another worker.
		} else {
			// Lost the race (lines 49-50): the joined thread completed in
			// between; resume our own context immediately.
			rt.objs.Free(p, w.rank, cloc)
			t.w.bringTo(p, t) // restore our just-evacuated stack
			p.Sleep(rt.cfg.Machine.CtxSwitch)
			rt.joinResumed(t.w, h.E, t.id, t.reqTag)
			t.waitingOn = rdma.Loc{}
			t.state = tRunning
		}
	}
	ret := rt.getRetval(c, h) // line 51
	rt.consumeEntry(c, h)     // line 52
	return ret
}

// ---------------------------------------------------------------------------
// Stalling join (Fig. 3) — also the join of child stealing (Full threads)
// ---------------------------------------------------------------------------

// dieStalling is the DIE function of Fig. 3.
func (rt *Runtime) dieStalling(c *Ctx, ret []byte) {
	t, p := c.t, c.p
	w := t.w
	h := t.hdl
	rt.putRetval(c, h, ret)                      // line 5
	rt.fab.PutInt64(p, w.rank, flagWord(h.E), 1) // line 6
	rt.joinCompleted(h.E)
	t.releaseStack()
	t.state = tDead
	if entry, obj, ok := w.dq.Pop(p); ok { // line 7
		_ = entry
		next := obj.(*Thread)
		if next.w != w {
			// Requeued steal-half surplus: stack still at the original
			// victim; migrate it in before running (never hit by the
			// default steal-one policy, where own-deque stacks are local).
			w.resume(p, next)
			return
		}
		w.handoff(next) // line 9: resume nextThread.context
		return
	}
	w.toScheduler() // line 11
}

// dieChildFull completes a child-stealing task: write the result, set the
// flag, and return to the scheduler (there is no continuation to pop —
// the parent kept running at spawn time).
func (rt *Runtime) dieChildFull(c *Ctx, ret []byte) {
	t, p := c.t, c.p
	w := t.w
	h := t.hdl
	rt.putRetval(c, h, ret)
	rt.fab.PutInt64(p, w.rank, flagWord(h.E), 1)
	rt.joinCompleted(h.E)
	t.state = tDead
	w.toScheduler()
}

// joinPoll is the JOIN function of Fig. 3: poll the flag; while unset, park
// in the worker's wait queue and let the scheduler run. Used by
// ContStalling and by ChildFull (whose threads are tied: they re-enter the
// same worker's wait queue and never migrate).
func (rt *Runtime) joinPoll(c *Ctx, h Handle) []byte {
	t, p := c.t, c.p
	f := rt.fab.GetInt64(p, t.w.rank, flagWord(h.E)) // line 13
	for f == 0 {                                     // line 14
		w := t.w
		// suspend context do (lines 15-17)
		t.evacuate(p)
		t.state = tSuspended
		t.waitingOn = h.E
		rt.joinSuspended(h.E)
		rt.traceEvent(obs.Event{T: p.Now(), Rank: w.rank, Kind: obs.KindSuspend, Task: t.id, Peer: -1, Req: t.reqTag})
		w.waitQ = append(w.waitQ, t) // line 16: PUSHTOWAITQUEUE
		p.Sleep(rt.cfg.Machine.CtxSwitch)
		w.toScheduler() // line 17
		t.parkSelf(p)
		// Resumed round-robin by the scheduler after a failed steal.
		f = rt.fab.GetInt64(p, t.w.rank, flagWord(h.E)) // line 18
	}
	ret := rt.getRetval(c, h) // line 19
	rt.consumeEntry(c, h)     // line 20
	return ret
}

// joinRtC is the join of run-to-completion child stealing: an unresolved
// join calls the scheduler function directly on top of its own stack,
// executing other tasks inline. The join is "buried" beneath whatever those
// tasks do until they return (§IV-B).
func (rt *Runtime) joinRtC(c *Ctx, h Handle) []byte {
	w, p := c.w, c.p
	f := rt.fab.GetInt64(p, w.rank, flagWord(h.E))
	if f == 0 {
		rt.joinSuspended(h.E)
		for f == 0 {
			if !w.runOne(p) {
				p.Sleep(idleBackoff)
			}
			f = rt.fab.GetInt64(p, w.rank, flagWord(h.E))
		}
		rt.joinResumed(w, h.E, -1, w.curReq) // buried join: no thread identity
	}
	ret := rt.getRetval(c, h)
	rt.consumeEntry(c, h)
	return ret
}

// ---------------------------------------------------------------------------
// Multi-consumer futures with greedy join (§V-D)
// ---------------------------------------------------------------------------

// dieFutureGreedy completes a multi-consumer future: set the done flag,
// then visit every consumer slot with an atomic +2; slots observed in state
// 1 hold suspended waiters. The first waiter is resumed immediately; the
// others are pushed into the local task queue (and are thus stealable), as
// described in §V-D.
func (rt *Runtime) dieFutureGreedy(c *Ctx, ret []byte) {
	t, p := c.t, c.p
	w := t.w
	h := t.hdl
	rt.putRetval(c, h, ret)
	t.releaseStack()
	t.state = tDead
	rt.fab.PutInt64(p, w.rank, flagWord(h.E), 1) // done: later joiners skip suspension
	var waiters []*Thread
	for i := 0; i < int(h.Consumers); i++ {
		slot := field(h.E, meSlots+i*slotStride, 8)
		if s := rt.fab.FetchAdd(p, w.rank, slot, 2); s == 1 {
			var cb [rdma.LocSize]byte
			rt.fab.Get(p, w.rank, field(h.E, meSlots+i*slotStride+8, rdma.LocSize), cb[:])
			cloc := rdma.DecodeLoc(cb[:])
			ctx := make([]byte, ctxObjBytes)
			rt.fab.Get(p, w.rank, cloc, ctx)
			waiters = append(waiters, rt.loadContext(ctx))
			rt.objs.Free(p, w.rank, cloc)
		}
	}
	rt.joinCompleted(h.E)
	if len(waiters) == 0 {
		if entry, obj, ok := w.dq.Pop(p); ok {
			// th.w == w: see dieGreedy — requeued steal-half surplus must
			// not be handed off without migration.
			if th, isThread := obj.(*Thread); isThread && entryKind(entry) == entCont && th.id == t.parentID && th.w == w {
				w.handoff(th)
				return
			} else {
				w.dq.Push(p, entry, obj)
			}
		}
		w.toScheduler()
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

// joinFutureGreedy joins a multi-consumer future under the greedy policy.
func (rt *Runtime) joinFutureGreedy(c *Ctx, h Handle) []byte {
	t, p := c.t, c.p
	w := t.w
	done := rt.fab.GetInt64(p, w.rank, flagWord(h.E))
	if done == 0 {
		t.evacuate(p)
		cloc := w.saveContext(p, t)
		i := rt.fab.FetchAdd(p, w.rank, field(h.E, meSlotCtr, 8), 1)
		if i >= int64(h.Consumers) {
			panic(fmt.Sprintf("core: future joined by more than its %d declared consumers", h.Consumers))
		}
		var cb [rdma.LocSize]byte
		rdma.EncodeLoc(cb[:], cloc)
		rt.fab.Put(p, w.rank, field(h.E, meSlots+int(i)*slotStride+8, rdma.LocSize), cb[:])
		t.state = tSuspended
		t.waitingOn = h.E
		rt.joinSuspended(h.E)
		rt.traceEvent(obs.Event{T: p.Now(), Rank: w.rank, Kind: obs.KindSuspend, Task: t.id, Peer: -1, Req: t.reqTag})
		if s := rt.fab.FetchAdd(p, w.rank, field(h.E, meSlots+int(i)*slotStride, 8), 1); s == 0 {
			// Registered before completion: park until the die resumes us.
			p.Sleep(rt.cfg.Machine.CtxSwitch)
			w.toScheduler()
			t.parkSelf(p)
		} else {
			// The future completed while we were registering: proceed.
			rt.objs.Free(p, w.rank, cloc)
			t.w.bringTo(p, t)
			p.Sleep(rt.cfg.Machine.CtxSwitch)
			rt.joinResumed(t.w, h.E, t.id, t.reqTag)
			t.waitingOn = rdma.Loc{}
			t.state = tRunning
		}
	}
	ret := rt.getRetval(c, h)
	rt.consumeEntry(c, h)
	return ret
}
