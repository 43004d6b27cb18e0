package core

import (
	"math/rand"

	"contsteal/internal/deque"
	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/uniaddr"
)

// Thread is one user task. For continuation-stealing policies every spawned
// task is a Thread with a logical stack in the uni-address region; for
// ChildFull every started task is a Thread with a private (non-uni) stack;
// ChildRtC tasks are not Threads at all (they run inline on the worker).
//
// The thread's control state is its proc (a sim.Proc, parked while the
// thread is not running); its migratable data state is the stack bytes
// managed through uniaddr. See DESIGN.md §1.1. A dead Thread is recycled:
// it is zeroed (recycle) and the runtime hands it, with its embedded Ctx and
// bound callbacks, to the next task (newThread), as the engine does with the
// proc.
type Thread struct {
	rt *Runtime
	id int64

	proc *sim.Proc
	threadCallbacks
	ctx Ctx     // the task's Ctx, set up by main
	w   *Worker // current location; updated on migration

	// next is the thread a dying t's pop leaves to run after t (see popNext,
	// dieGreedy).
	next *Thread

	fn    TaskFunc
	entry rdma.Loc // thread entry this task reports to (zero for the root)
	hdl   Handle   // full handle (entry + consumer count)

	stackAddr uniaddr.VAddr
	stackSize int

	// Evacuation state while suspended.
	evacuated bool
	evacRank  int
	evacAddr  uniaddr.VAddr

	// parentID identifies the spawner, to validate the greedy-die fast path.
	parentID int64

	// waitingOn is the entry this thread is suspended on (join accounting).
	waitingOn rdma.Loc

	// req is the open-system request this thread is the root of (serve
	// mode); nil for closed-system roots and all non-root threads.
	req *Request

	// reqTag identifies the serve request whose DAG this thread belongs to
	// (request ID + 1; 0 = closed system). Every descendant inherits it at
	// spawn, so steals, migrations and joins stay attributable to the
	// request end-to-end.
	reqTag int64

	// parked/pendingWake implement a race-free park/wake handshake: a
	// resumer may complete (and call handoff) during the latency window
	// between a thread making itself resumable and its proc actually
	// parking. In that case the wake is recorded and park returns at once.
	parked      bool
	pendingWake bool

	isChildTask bool // ChildFull task (tied; no uni-address stack)
	isRoot      bool
}

// threadCallbacks are a Thread's methods as funcs, bound once when the Thread
// is made (newThread) and kept when it is recycled: the proc body of every
// task it carries (t.main), the pop of its dying deque (t.diePopped) and the
// rest of greedy join's die (t.dieRest).
type threadCallbacks struct {
	body      func(p *sim.Proc)
	onPopped  func(entry []byte, obj any, ok bool)
	onDieRest func(p *sim.Proc)
}

// Worker is one simulated core: a scheduler proc plus the per-worker state
// of the runtime (deque, wait queue, stack regions, allocator, RNG, stats).
type Worker struct {
	rt   *Runtime
	rank int
	proc *sim.Proc
	dq   *deque.Deque
	ua   *uniaddr.Manager
	rng  *rand.Rand

	// waitQ is the FIFO wait queue of threads suspended at stalling joins
	// (§III-A1). The scheduler resumes them round-robin on failed steals.
	waitQ fifo[*Thread]

	// inbox holds open-system requests injected by arrival timers (serve
	// mode). Only the owning worker reads it; unlike deque entries, inbox
	// requests are not stealable, so the scheduler serves it first.
	inbox fifo[*Request]

	// frames is what occupies the worker, innermost last: nothing while its
	// scheduler runs, the one thread it was handed to, or (ChildRtC) the
	// tasks nested inline on the scheduler's stack. The top frame names the
	// current thread, the task that computes and the request tag that child
	// tasks inherit and events emitted on this rank carry (including fabric
	// ops issued mid-task); the Fig. 7 busy gauge counts the workers whose
	// stack is non-empty. Popping a frame closes its run span.
	frames []runFrame

	// failStreak counts consecutive failed steals since the last success;
	// it drives the idle exponential backoff when Runtime.stealBackoff is on,
	// and the intra-node→cluster escalation of the hierarchical victim
	// policy.
	failStreak int
	// lastVictim is the rank of this worker's last successful steal victim
	// (-1 when none), the affinity used by the locality victim policy: work
	// spawned there tends to keep its data and descendants there. Cleared
	// when a probe at that rank comes back empty.
	lastVictim int
	// lastCollectFails is the StealsFail value at the last periodic
	// lock-queue drain, so an idle pass that did not add a new failed steal
	// cannot re-fire the drain while the counter sits at a multiple of
	// collectEvery.
	lastCollectFails uint64

	// The scheduler loop's search for work runs in continuation form (see
	// schedule): what it found for the goroutine to dispatch, the steal
	// attempt in flight, what follows a seek that missed, and the callbacks
	// that carry it across its suspensions — bound once (bindCallbacks), so
	// an idle cycle allocates nothing.
	found                   found
	victim                  *Worker
	stealStart              sim.Time
	miss                    func()
	onLook, onIdle, onWoken func()
	onPopped                func(entry []byte, obj any, ok bool)
	onStole                 func(entries [][]byte, objs []any, ok bool)

	// The spawn chain in flight on this worker (see Ctx.spawn): the spawning
	// task, the child's function, and the chain's callbacks, bound once.
	spawner                       *Ctx
	spawnFn                       TaskFunc
	onSpawnCharged, onSpawnQueued func()
	onSpawnEntry                  func(e rdma.Loc)

	rootTask TaskFunc
	retBuf   []byte // JoinInt64's result buffer, RetvalBytes long
	st       WorkerStats
}

func (w *Worker) bindCallbacks() {
	w.onLook, w.onIdle, w.onWoken = w.look, w.idle, w.woken
	w.onPopped, w.onStole = w.popped, w.stole
	w.onSpawnCharged, w.onSpawnEntry, w.onSpawnQueued = w.spawnCharged, w.spawnEntry, w.spawnQueued
}

// runFrame is one occupant of a worker and its open run span: a thread
// (t non-nil) or a ChildRtC task running inline. The closed system's RtC
// root is task −1 and has no span.
type runFrame struct {
	t     *Thread
	task  int64
	req   int64 // serve request tag (request ID + 1; 0 = none)
	since sim.Time
}

// top is the worker's innermost occupant, the zero frame (no thread, task 0,
// no request) when its scheduler runs.
func (w *Worker) top() runFrame {
	if n := len(w.frames); n > 0 {
		return w.frames[n-1]
	}
	return runFrame{}
}

// push makes a thread or inline task the worker's innermost occupant.
func (w *Worker) push(t *Thread, task, req int64) {
	w.frames = append(w.frames, runFrame{t: t, task: task, req: req, since: w.rt.eng.Now()})
}

// pop ends the innermost occupancy and closes its run span.
func (w *Worker) pop() {
	n := len(w.frames) - 1
	f := w.frames[n]
	w.frames[n] = runFrame{} // hold no dead Thread
	w.frames = w.frames[:n]
	if f.task >= 0 {
		w.rt.traceEvent(obs.Event{T: f.since, Rank: w.rank, Kind: obs.KindRun, Task: f.task, Peer: -1, Req: f.req})
	}
}

// setCurrent hands the worker from the thread occupying it, if any, to t
// (nil: to its scheduler).
func (w *Worker) setCurrent(t *Thread) {
	if len(w.frames) > 0 {
		w.pop()
	}
	if t != nil {
		w.push(t, t.id, t.reqTag)
	}
}

// The hand-over contract. A worker is occupied by exactly one proc at a time:
// its scheduler, or the thread w.top().t. Whoever gives the worker away —
// handoff (and resume, which ends in it) to a thread, toScheduler to the
// scheduler — wakes the new occupant and must then suspend or exit before any
// virtual time passes: the engine runs one proc at a time, so the new occupant
// starts only once the old one is out of the way. The takers do that in one
// place each: the scheduler parks at the end of run, a thread parks in park
// (reached from release and from spawn) or exits at the end of main — or in
// dispatch, at the end of greedy join's die fast path.

// handoff transfers the worker to thread t, whose stack must be here.
func (w *Worker) handoff(t *Thread) {
	t.w = w
	w.setCurrent(t)
	if t.parked {
		t.parked = false
		w.rt.eng.Wake(t.proc)
	} else {
		// The thread has not reached its park yet (it is inside the small
		// latency window after publishing itself); it will observe the
		// pending wake and continue without parking.
		t.pendingWake = true
	}
}

// park suspends the thread's proc unless a resumer already claimed it during
// the publish window: sim.Proc.ParkThen with no continuation, so the wake-up
// resumes the thread's coroutine, which must Await.
func (t *Thread) park(p *sim.Proc) {
	if t.pendingWake {
		t.pendingWake = false
		return
	}
	t.parked = true
	p.ParkThen(nil)
}

// toScheduler returns the worker to its scheduler loop.
func (w *Worker) toScheduler() {
	w.setCurrent(nil)
	w.rt.eng.Wake(w.proc)
}

// release is the one way a live thread gives up its worker ("suspend context",
// Fig. 3 line 17 and Fig. 4 line 48; Yield): switch to the scheduler context
// and park until somebody hands this thread a worker again — possibly another
// one, so callers must re-read t.w afterwards. The thread has already made
// itself findable (a published context, the wait queue, the deque).
func (t *Thread) release(p *sim.Proc) {
	w := t.w // before the switch: a resumer may claim t (and move t.w) during it
	p.Sleep(t.rt.cfg.Machine.CtxSwitch)
	w.toScheduler()
	t.park(p)
	p.Await()
}

// suspended books thread t as suspended at the join of entry e.
func (t *Thread) suspended(p *sim.Proc, e rdma.Loc) {
	t.waitingOn = e
	t.rt.joinSuspended(e)
	t.rt.traceEvent(obs.Event{T: p.Now(), Rank: t.w.rank, Kind: obs.KindSuspend, Task: t.id, Peer: -1, Req: t.reqTag})
}

// newContThread creates (but does not yet start) a continuation-stealing
// thread whose stack is placed immediately above the current top of w's
// uni-address region (Fig. 2 step 1).
func newContThread(w *Worker, fn TaskFunc, hdl Handle, parentID int64, isRoot bool) *Thread {
	t := w.rt.newThread(w, fn, hdl)
	t.stackSize = stackBytes
	t.parentID = parentID
	t.isRoot = isRoot
	t.stackAddr = w.ua.PushStack(t.stackSize)
	if w.rt.cfg.StackScheme == IsoAddress {
		// Account the globally unique (never reused) virtual address this
		// stack would occupy under iso-address. The backing remains the
		// per-rank region; only the address-space consumption is modelled.
		w.rt.isoNext += uint64(t.stackSize)
		if w.rt.isoNext > w.rt.isoHigh {
			w.rt.isoHigh = w.rt.isoNext
		}
	}
	// Stamp the stack with identifiable content so migrations move real,
	// checkable bytes (tests rely on this).
	frame := w.ua.UniBytes(t.stackAddr, 16)
	for i := range frame {
		frame[i] = byte(t.id>>(8*(i%8))) ^ 0xA5
	}
	return t
}

// newThread registers a thread for a task running fn on w that reports to
// hdl (zero for a root). It reuses a dead thread from the runtime's free
// list, zeroed when that thread's task ended, or else allocates a new one and
// binds its callbacks.
func (rt *Runtime) newThread(w *Worker, fn TaskFunc, hdl Handle) *Thread {
	var t *Thread
	if n := len(rt.freeThreads); n > 0 {
		t = rt.freeThreads[n-1]
		rt.freeThreads = rt.freeThreads[:n-1]
	} else {
		t = &Thread{}
		t.threadCallbacks = threadCallbacks{t.main, t.diePopped, t.dieRest}
	}
	t.rt, t.w, t.fn, t.entry, t.hdl = rt, w, fn, hdl.E, hdl
	t.id = rt.threadID
	rt.threadID++
	return t
}

// start launches the thread's proc at the current virtual time. The caller
// must have made the thread current on its worker.
func (t *Thread) start() {
	t.proc = t.rt.eng.GoID("thread", t.id, t.body)
}

// main is the thread body: run the task function, then die according to the
// policy, which ends by recycling the Thread.
func (t *Thread) main(p *sim.Proc) {
	t.ctx = Ctx{rt: t.rt, t: t, p: p}
	t.rt.die(&t.ctx, t.fn(&t.ctx))
}

// recycle zeroes the dead Thread but for its bound callbacks and puts it on
// the runtime's free list.
func (t *Thread) recycle() {
	rt := t.rt
	*t = Thread{threadCallbacks: t.threadCallbacks}
	rt.freeThreads = append(rt.freeThreads, t)
}

// evacuate moves the thread's stack to its worker's evacuation region
// (Fig. 2 step 4) and records where it went. Under the iso-address scheme
// stacks have globally unique addresses and are never evacuated: the stack
// simply stays pinned where it is until resumed (possibly remotely).
func (t *Thread) evacuate(p *sim.Proc) {
	if t.evacuated || t.isChildTask || t.rt.cfg.StackScheme == IsoAddress {
		return
	}
	w := t.w
	t.evacAddr = w.ua.Evacuate(p, t.stackAddr, t.stackSize)
	t.evacRank = w.rank
	t.evacuated = true
}

// retire frees whatever copy of the dead thread's stack is current (a tied
// child task has none in the uni-address region).
func (t *Thread) retire() {
	switch {
	case t.isChildTask:
	case t.evacuated:
		t.rt.workers[t.evacRank].ua.FreeEvac(t.evacAddr, t.stackSize)
		t.evacuated = false
	default:
		t.w.ua.PopStack(t.stackAddr, t.stackSize)
	}
}

// bringTo makes thread t's stack present on worker w, charging the
// appropriate copy costs, and returns the time spent copying the payload
// (the "task copy time" of Table II). Three cases:
//
//   - stack already on w (local pop of an in-place continuation): free;
//   - stack in some rank's evacuation region: restore locally or migrate in;
//   - stack live in another rank's uni region (stolen continuation): RDMA
//     copy to the same virtual address here (Fig. 2 step 3).
func (w *Worker) bringTo(p *sim.Proc, t *Thread) sim.Time {
	if t.isChildTask {
		return 0 // tied; never migrates — caller guarantees t.w == w
	}
	start := p.Now()
	switch {
	case t.evacuated && t.evacRank == w.rank:
		if w.ua.Restore(p, t.evacAddr, t.stackAddr, t.stackSize) {
			t.evacuated = false
		} else {
			// Address conflict: keep running from the evacuation copy (a
			// simulator liberty; the region counts it so experiments can
			// check it is negligible).
		}
	case t.evacuated: // remote evacuation region
		victim := w.rt.workers[t.evacRank]
		src := victim.ua.EvacLoc(t.evacAddr, t.stackSize)
		if w.ua.MigrateIn(p, src, t.stackAddr, t.stackSize) {
			victim.ua.FreeEvac(t.evacAddr, t.stackSize)
			t.evacuated = false
		} else {
			// Conflict at the original address: move the copy into our own
			// evacuation region instead.
			ev, ok := w.ua.Evac.Alloc(t.stackSize)
			if !ok {
				panic("core: evacuation region exhausted during migration")
			}
			w.rt.fab.Get(p, w.rank, src, w.ua.EvacBytes(ev, t.stackSize))
			victim.ua.FreeEvac(t.evacAddr, t.stackSize)
			t.evacRank, t.evacAddr = w.rank, ev
		}
		w.st.Migrations++
	case t.w != w: // stolen in-deque continuation: stack live at the victim
		victim := t.w
		src := victim.ua.UniLoc(t.stackAddr, t.stackSize)
		if w.ua.MigrateIn(p, src, t.stackAddr, t.stackSize) {
			victim.ua.PopStack(t.stackAddr, t.stackSize)
		} else {
			// Address conflict. Under uni-address this cannot happen when
			// the thief is idle (its region is empty); under iso-address
			// suspended stacks stay in place, so a collision with our
			// modelled (reused) backing addresses is possible. Copy into
			// the evacuation region and run from there, as for remote
			// resume conflicts.
			ev, ok := w.ua.Evac.Alloc(t.stackSize)
			if !ok {
				panic("core: evacuation region exhausted during stolen-stack fallback")
			}
			w.rt.fab.Get(p, w.rank, src, w.ua.EvacBytes(ev, t.stackSize))
			victim.ua.PopStack(t.stackAddr, t.stackSize)
			t.evacuated = true
			t.evacRank, t.evacAddr = w.rank, ev
		}
		w.st.Migrations++
	}
	return p.Now() - start
}

// restore makes the suspended or stolen thread t runnable on w: it brings the
// stack here, charges a context switch and closes the join accounting of a
// suspended joiner. Returns the payload copy time for steal accounting.
func (w *Worker) restore(p *sim.Proc, t *Thread) sim.Time {
	migrated := t.w != w || (t.evacuated && t.evacRank != w.rank)
	start := p.Now()
	copyTime := w.bringTo(p, t)
	p.Sleep(w.rt.cfg.Machine.CtxSwitch)
	if t.waitingOn.Valid() {
		w.rt.joinResumed(w, t.waitingOn, t.id, t.reqTag)
		t.waitingOn = rdma.Loc{}
	}
	if migrated {
		w.rt.traceEvent(obs.Event{T: start, Rank: w.rank, Kind: obs.KindMigrate, Task: t.id, Peer: -1, Req: t.reqTag})
		if w.rt.ob != nil {
			w.rt.ob.migrate.Observe(copyTime)
		}
	}
	return copyTime
}

// resume restores t on w and hands the worker over to it (see the hand-over
// contract above handoff).
func (w *Worker) resume(p *sim.Proc, t *Thread) sim.Time {
	copyTime := w.restore(p, t)
	w.handoff(t)
	return copyTime
}
