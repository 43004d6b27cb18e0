package core

import (
	"encoding/binary"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// Ctx is the task-side interface to the runtime, passed to every TaskFunc.
// Its methods charge the machine model's costs and drive the scheduling
// algorithms; user code never touches workers or the fabric directly.
type Ctx struct {
	rt *Runtime
	t  *Thread // nil for ChildRtC inline tasks
	w  *Worker // fixed worker for inline tasks
	p  *sim.Proc
}

// worker resolves the task's current worker. A continuation-stealing thread
// can migrate between calls, so this is looked up on every use.
func (c *Ctx) worker() *Worker {
	if c.t != nil {
		return c.t.w
	}
	return c.w
}

// Rank returns the rank the task is currently executing on.
func (c *Ctx) Rank() int { return c.worker().rank }

// Workers returns the number of workers in the runtime.
func (c *Ctx) Workers() int { return c.rt.cfg.Workers }

// Policy returns the runtime's scheduling policy.
func (c *Ctx) Policy() Policy { return c.rt.cfg.Policy }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.p.Now() }

// Access exposes the task's current fabric standpoint — its proc (for
// charging time) and rank — to companion substrates such as the PGAS global
// heap, which issue one-sided operations on the task's behalf. The rank
// must be re-fetched after any Spawn/Join/Yield, since the task may have
// migrated.
func (c *Ctx) Access() (*sim.Proc, int) { return c.p, c.worker().rank }

// Compute models d nanoseconds of (ITO-A-reference) computation: the
// paper's compute(M) busy loop. The duration is scaled by the machine's
// core speed — and by the straggler factor of the executing rank's node
// under fault injection — and counted as busy time. The trace span covers
// exactly the BusyTime increment, so Σ compute span durations ==
// Work.BusyTime.
func (c *Ctx) Compute(d sim.Time) {
	w := c.worker()
	scaled := c.rt.cfg.Machine.ComputeOn(w.rank, d)
	w.st.BusyTime += scaled
	if tr := c.rt.tr; tr != nil {
		f := w.top()
		tr.Event(obs.Event{
			T: c.p.Now(), Dur: scaled, Rank: w.rank, Kind: obs.KindCompute,
			Task: f.task, Peer: -1, Req: f.req,
		})
	}
	c.p.Sleep(scaled)
}

// Spawn creates a task joined by exactly one consumer (plain fork-join, or
// a single-consumer future: the returned handle may be joined by any task,
// not only the parent).
//
// Under continuation stealing the child runs immediately and the caller's
// continuation becomes stealable; the call returns when the continuation is
// resumed — on this worker if the parent was not stolen, on the thief
// otherwise. Under child stealing the child is enqueued and the caller
// continues at once.
func (c *Ctx) Spawn(fn TaskFunc) Handle { return c.spawn(fn, 1) }

// SpawnFuture creates a task whose handle will be joined by exactly
// `consumers` tasks (§V-D). consumers must be ≥ 1 and declared exactly:
// the entry is freed after the last declared join.
func (c *Ctx) SpawnFuture(consumers int, fn TaskFunc) Handle {
	if consumers < 1 {
		panic("core: SpawnFuture needs at least one consumer")
	}
	return c.spawn(fn, consumers)
}

func (c *Ctx) spawn(fn TaskFunc, consumers int) Handle {
	rt, p := c.rt, c.p
	w := c.worker()
	w.st.Spawns++
	p.Sleep(rt.cfg.Machine.SpawnCost)
	h := w.allocEntry(p, consumers)

	if !rt.cfg.Policy.Continuation() {
		// Child stealing: enqueue the child, keep running the parent.
		rt.childSeq++
		ct := &childTask{fn: fn, hdl: h, id: rt.childSeq, reqTag: w.top().req}
		var buf [childTaskBytes]byte
		encodeChildEntry(buf[:], ct)
		w.dq.Push(p, buf[:], ct)
		if rt.ob != nil {
			rt.ob.dequeOcc.Observe(sim.Time(w.dq.Len()))
		}
		return h
	}

	// Continuation stealing: make the caller's continuation stealable and
	// run the child first (Fig. 1c / Fig. 2 step 1).
	t := c.t
	var buf [contEntrySize]byte
	encodeContEntry(buf[:], entCont, t)
	w.dq.Push(p, buf[:], t)
	if rt.ob != nil {
		rt.ob.dequeOcc.Observe(sim.Time(w.dq.Len()))
	}

	child := newContThread(w, fn, h, t.id, false)
	child.reqTag = t.reqTag
	w.setCurrent(child)
	child.start()
	t.parkSelf(p)
	// Resumed here: by the child's die fast path (same worker) or by a
	// thief after stack migration (t.w updated). The serial execution order
	// is preserved whenever no steal happened.
	return h
}

// Join waits for the task behind h and returns its return value (padded to
// the runtime's RetvalBytes). Exactly the declared number of consumers must
// join a handle.
func (h Handle) Join(c *Ctx) []byte {
	h.wait(c)
	return c.rt.takeResult(c, h, make([]byte, c.rt.cfg.RetvalBytes))
}

// wait is Join up to its epilogue: it returns once the task behind h has
// completed, the joiner running again (possibly on another worker).
func (h Handle) wait(c *Ctx) {
	if !h.Valid() {
		panic("core: join on invalid handle")
	}
	rt := c.rt
	c.worker().st.Joins++
	switch rt.cfg.Policy {
	case ContGreedy:
		rt.joinGreedy(c, h)
	case ContStalling, ChildFull:
		rt.joinPoll(c, h)
	default:
		rt.joinRtC(c, h)
	}
}

// Yield voluntarily releases the worker: the caller's continuation becomes
// stealable in the local deque and the scheduler runs (§II-C: the generic
// suspension capability that continuation-stealing runtimes get for free).
// The continuation is resumed by this worker's scheduler when no other work
// precedes it, or by a thief — in which case the task migrates.
//
// Under ChildRtC there is no suspendable context; Yield instead executes at
// most one other task inline (help-first yield) and returns.
func (c *Ctx) Yield() {
	rt, p := c.rt, c.p
	if c.t == nil || c.t.isChildTask {
		// RtC tasks and tied child tasks cannot release their worker.
		if rt.cfg.Policy == ChildRtC {
			c.worker().runOne(p)
		}
		return
	}
	t := c.t
	var buf [contEntrySize]byte
	encodeContEntry(buf[:], entCont, t)
	// The yielded continuation goes to the steal (FIFO) end: every other
	// locally queued task runs first, and thieves see it first.
	t.w.dq.PushTop(p, buf[:], t)
	t.release(p)
}

// JoinInt64 joins and decodes the first 8 bytes of the result. It reads the
// result into its worker's scratch buffer, which no other task can touch
// before the decode: the joiner occupies the worker throughout.
func (h Handle) JoinInt64(c *Ctx) int64 {
	h.wait(c)
	return RetInt64(c.rt.takeResult(c, h, c.worker().retBuf))
}

// Int64Ret encodes v as a task return value.
func Int64Ret(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// RetInt64 decodes a return value produced by Int64Ret (e.g. the root
// task's result from Runtime.Run).
func RetInt64(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}
