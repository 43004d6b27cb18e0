package core

import (
	"math/rand"

	"contsteal/internal/deque"
	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/uniaddr"
)

// threadState is the lifecycle of a user thread.
type threadState int

const (
	tRunning   threadState = iota
	tInDeque               // continuation parked in the owner's deque (stealable)
	tSuspended             // suspended at a join (stack evacuated)
	tDead
)

// Thread is one user task. For continuation-stealing policies every spawned
// task is a Thread with a logical stack in the uni-address region; for
// ChildFull every started task is a Thread with a private (non-uni) stack;
// ChildRtC tasks are not Threads at all (they run inline on the worker).
//
// The thread's control state is its parked goroutine (a sim.Proc); its
// migratable data state is the stack bytes managed through uniaddr. See
// DESIGN.md §1.1.
type Thread struct {
	rt *Runtime
	id int64

	proc *sim.Proc
	w    *Worker // current location; updated on migration

	fn    TaskFunc
	entry rdma.Loc // thread entry this task reports to (zero for the root)
	hdl   Handle   // full handle (entry + consumer count)

	stackAddr uniaddr.VAddr
	stackSize int
	state     threadState

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
	waitQ []*Thread

	// inbox holds open-system requests injected by arrival timers (serve
	// mode). Only the owning worker reads it; unlike deque entries, inbox
	// requests are not stealable, so the scheduler serves it first.
	inbox []*Request

	current  *Thread
	rtcDepth int // ChildRtC: nesting depth of inline task execution

	// curReq is the request tag of the work currently occupying this
	// worker (thread current or RtC inline task), 0 when none. It is the
	// source of child-task inheritance and of the Req tag on events emitted
	// while the worker computes (including fabric ops issued mid-task).
	curReq int64

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

	rootTask TaskFunc
	st       WorkerStats
	ob       *workerObs // non-nil when Config.Metrics is set
}

func (w *Worker) bindCallbacks() {
	w.onLook, w.onIdle, w.onWoken = w.look, w.idle, w.woken
	w.onPopped, w.onStole = w.popped, w.stole
}

// setCurrent tracks which thread occupies the worker and maintains the
// busy-workers gauge for the Fig. 7 time series.
func (w *Worker) setCurrent(t *Thread) {
	if (w.current == nil) != (t == nil) {
		if t != nil {
			w.rt.busy++
		} else {
			w.rt.busy--
		}
	}
	if w.rt.tr != nil {
		if w.current != nil {
			w.rt.traceRunEnd(w.rank)
		}
		if t != nil {
			w.rt.traceRunStart(w.rank, t.id, t.reqTag)
		}
	}
	if t != nil {
		w.curReq = t.reqTag
	} else {
		w.curReq = 0
	}
	w.current = t
}

// rtcEnter/rtcExit maintain the busy gauge for inline (RtC) execution.
func (w *Worker) rtcEnter() {
	if w.rtcDepth == 0 {
		w.rt.busy++
	}
	w.rtcDepth++
}

func (w *Worker) rtcExit() {
	w.rtcDepth--
	if w.rtcDepth == 0 {
		w.rt.busy--
	}
}

// The hand-over contract. A worker is occupied by exactly one proc at a time:
// its scheduler, or the thread w.current. Whoever gives the worker away —
// handoff (and resume, which ends in it) to a thread, toScheduler to the
// scheduler — wakes the new occupant and must then suspend or exit before any
// virtual time passes: the engine runs one proc at a time, so the new occupant
// starts only once the old one is out of the way. The takers do that in one
// place each: the scheduler parks at the end of run, a thread parks in
// parkSelf (reached from release and from spawn) or exits at the end of main.

// handoff transfers the worker to thread t, whose stack must be here.
func (w *Worker) handoff(t *Thread) {
	t.w = w
	t.state = tRunning
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

// parkSelf suspends the thread's proc unless a resumer already claimed it
// during the publish window.
func (t *Thread) parkSelf(p *sim.Proc) {
	if t.pendingWake {
		t.pendingWake = false
		return
	}
	t.parked = true
	p.Park()
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
	t.parkSelf(p)
}

// suspended books thread t as suspended at the join of entry e.
func (t *Thread) suspended(p *sim.Proc, e rdma.Loc) {
	t.state = tSuspended
	t.waitingOn = e
	t.rt.joinSuspended(e)
	t.rt.traceEvent(obs.Event{T: p.Now(), Rank: t.w.rank, Kind: obs.KindSuspend, Task: t.id, Peer: -1, Req: t.reqTag})
}

// newContThread creates (but does not yet start) a continuation-stealing
// thread whose stack is placed immediately above the current top of w's
// uni-address region (Fig. 2 step 1).
func newContThread(w *Worker, fn TaskFunc, hdl Handle, parentID int64, isRoot bool) *Thread {
	t := &Thread{
		rt:        w.rt,
		fn:        fn,
		entry:     hdl.E,
		hdl:       hdl,
		stackSize: stackBytes,
		parentID:  parentID,
		isRoot:    isRoot,
		w:         w,
	}
	t.stackAddr = w.ua.PushStack(t.stackSize)
	w.rt.register(t)
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

// start launches the thread's proc at the current virtual time. The caller
// must have made the thread current on its worker.
func (t *Thread) start() {
	t.state = tRunning
	// Pin the proc to the shard owning the worker's node. Inheriting the
	// spawn context would mis-file the proc whenever the spawning thread
	// has itself migrated here from another node (its own proc keeps its
	// birth shard for life — ownership is stable even as work moves).
	t.proc = t.rt.eng.GoIDOn(t.rt.shardOf(t.w.rank), "thread", t.id, t.main)
	t.rt.eng.AssertShard(t.proc, t.rt.shardOf(t.w.rank))
}

// main is the thread body: run the task function, then die according to the
// policy.
func (t *Thread) main(p *sim.Proc) {
	c := &Ctx{rt: t.rt, t: t, p: p}
	ret := t.fn(c)
	t.rt.die(c, ret)
	// Let the dead go: only suspended threads are ever looked up (loadContext),
	// and the registry would otherwise pin every Thread, Proc and closure of
	// the run. The id stays taken.
	t.rt.threads[t.id] = nil
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

// retire marks the thread dead and frees whatever copy of its stack is
// current (a tied child task has none in the uni-address region).
func (t *Thread) retire() {
	t.state = tDead
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
			// simulator liberty; counted so experiments can check it is
			// negligible).
			w.st.StackConflict++
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
			w.st.StackConflict++
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
			w.st.StackConflict++
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
		if w.ob != nil {
			w.ob.migrate.Observe(copyTime)
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
