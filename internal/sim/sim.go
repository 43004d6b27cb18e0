// Package sim implements a deterministic, process-oriented discrete-event
// simulator (DES). It is the substrate on which the whole repository runs:
// simulated cluster workers, user-level threads, and network operations are
// all simulated processes ("procs") advancing a shared virtual clock.
//
// # Model
//
// An Engine owns a virtual clock and a priority queue of events. A Proc is a
// goroutine that runs only while it holds the engine's baton; at any instant
// exactly one goroutine holds it — Run's caller, or one proc — and whoever
// holds it dispatches the next event itself when it suspends, so a
// simulation is fully sequential and deterministic: two runs with the same
// inputs produce the same event order, the same virtual timestamps, and the
// same results, regardless of GOMAXPROCS.
//
// Procs interact with virtual time through three primitives:
//
//   - Sleep(d): suspend for d nanoseconds of virtual time.
//   - Park(): suspend until some other proc (or callback) calls Wake.
//   - Wake(p)/WakeAfter(p, d): make a parked proc runnable (now or later).
//
// The engine additionally supports plain callback events via At/After, which
// run inline on whichever goroutine is dispatching (never concurrently with
// a proc body).
//
// Each suspension also has a continuation form — SleepThen, ParkThen,
// Chain.WaitThen — that returns at once and runs a function at the wake-up,
// inside event dispatch, as that proc (same event, same (time, seq), same
// shard: Sleep is SleepThen with no continuation, followed by Await). A
// continuation may suspend its proc again, so a cycle that mostly waits — an
// idle worker's pop miss, failed steal and backoff — is written as a chain of
// them and reaches the proc's goroutine, blocked in Await, only when one
// returns with something for it to do.
//
// # Determinism
//
// Events are ordered by (virtual time, sequence number); the sequence number
// is assigned when the event is scheduled, so simultaneous events fire in
// scheduling order (FIFO). No real time, map iteration order, or goroutine
// scheduling decision can influence the simulation.
//
// # Completion chains
//
// A Chain is the split-phase counterpart of a sequence of Sleeps: a state
// machine of timed callbacks that runs entirely inside event dispatch,
// waking the issuing proc exactly once at the end. A multi-step protocol
// (e.g. the five one-sided operations of a deque steal) issues its first
// link, each link's callback performs its memory access and schedules the
// next, the final link calls Complete, and the proc — parked in Wait —
// resumes within the same event dispatch, at the same (time, seq) instant at
// which a blocking implementation would have returned from its last Sleep.
// Each link consumes exactly one event and one sequence number, assigned at
// the same scheduling instants as the Sleeps it replaces, so converting a
// blocking protocol to a chain changes no virtual-time result: event order,
// timestamps, and all derived statistics stay byte-identical. What changes
// is host cost — one proc resumption per protocol instead of one per
// sub-operation. Chain objects are pooled on the engine (Wait releases
// them), so steady-state chains allocate nothing.
//
// # Host performance
//
// There is no driver goroutine between two procs. A suspending (or exiting)
// proc runs the event loop itself: callbacks cost a heap pop plus a function
// call (~25 ns), and a proc's wake-up costs one of three things. Inline: the
// proc suspended in continuation form, so the dispatcher calls the
// continuation, and if that suspends the proc again the wake-up is over —
// about a callback's cost (~28 ns), whichever proc it belongs to. In place:
// the proc to resume is the dispatcher itself, blocked in Await, which just
// returns — a clock advance, no channel operation (~29 ns). Switched: any
// other proc is woken directly over its channel and the dispatcher blocks —
// one goroutine switch (~270 ns). Only a Run per event still pays the old
// two-switch round trip (~500 ns). benchmark/micro.go times the unit costs
// cold, as sim.callback_ns, sim.sleep_ns, sim.handoff_ns, sim.chain5_ns and
// sim.sharded_event_ns; the shapes it has no driver for yet stay here as
// BenchmarkSleepInPlace, BenchmarkSleepInline and BenchmarkProcPingPong. Hot
// paths avoid switches: multi-op protocols use completion chains (one
// resumption per protocol), cycles that wait more than they work use
// continuations (no resumption until there is work), live procs are kept on
// an intrusive list (no map operations on spawn/death), proc names are
// formatted lazily (no fmt on the spawn path; see GoID), and events are plain
// values in a slice-backed heap (no per-event allocation). With a single OS
// thread available (GOMAXPROCS=1) the Go scheduler keeps the remaining
// switches on-thread, which is cheaper than cross-thread wakeups — the right
// setting when one simulation owns the whole process.
// When many engines run concurrently (parallel experiment sweeps, one
// engine per host goroutine), leave GOMAXPROCS alone: all host threads stay
// busy and determinism is unaffected either way because each engine's event
// order never depends on goroutine scheduling. EngineStats reports how many
// events, proc resumptions and callbacks a run executed, Inline and InPlace
// how many resumptions needed no switch, so throughput (events/sec) and the
// switch-avoidance ratio are directly measurable.
//
// # Sharding
//
// Two sharding layers exist on top of the core engine. NewEngineShards(n)
// tags every event of one engine with the shard (simulated node) it belongs
// to and keeps per-shard traffic counters (ShardStats) exposing the
// cross-node event flow; there is still one heap, so event order is the
// serial engine's by definition. Sharded (see sharded.go) runs n engines on their
// own goroutines in conservative barrier rounds — adaptive per-shard-pair
// lookahead horizons by default, a single lock-step window behind a flag —
// for shard-confined programs whose only cross-shard interaction is
// RouteAfter; lineage keys make its results byte-identical to the serial
// engine as well.
//
// # Failure propagation
//
// A panic inside a proc body is captured and re-raised as a *ProcPanic
// from the Engine.Run call driving the simulation — i.e. on the caller's
// goroutine, where it can be recovered per run. A panic inside a callback
// (including a chain link) is wrapped the same way, attributed to the
// pseudo-proc "callback", and a panic inside a continuation to the proc it
// ran as — both are caught inside dispatch, because the goroutine they
// happen to run on is usually some other suspended proc's. The engine shuts
// down its remaining procs first, so no goroutines leak past the failure.
package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// Time is a virtual timestamp or duration in nanoseconds. The simulation
// starts at time 0. Time is a distinct type (not time.Duration) to make it
// impossible to accidentally mix virtual and wall-clock time.
type Time int64

// Convenient virtual-duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// String formats the time with an adaptive unit, e.g. "12.5us" or "3.04s".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/1e3)
	case t < 10*Second:
		return fmt.Sprintf("%.2fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Forever sentinels "run to completion" when passed to Engine.Run.
const Forever Time = -1

// ProcState describes the lifecycle state of a Proc.
type ProcState uint8

// Proc lifecycle states.
const (
	StateNew       ProcState = iota // created, start event pending
	StateRunning                    // currently executing
	StateScheduled                  // has a pending wake event in the queue
	StateParked                     // suspended, waiting for an explicit Wake
	StateDead                       // body returned (or proc was killed)
)

func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateScheduled:
		return "scheduled"
	case StateParked:
		return "parked"
	case StateDead:
		return "dead"
	}
	return "invalid"
}

type wakeSignal uint8

const (
	wakeRun  wakeSignal = iota // baton holder -> proc: run until the next suspension
	wakeKill                   // Shutdown -> proc: unwind and exit
	wakeDone                   // killed proc -> Shutdown: goroutine is exiting
)

// killed is the panic payload used to unwind a proc's goroutine during
// Engine.Shutdown. It never escapes the package.
type killed struct{}

// ProcPanic is the payload Engine.Run re-panics with when a proc body
// panicked: the proc's identity, the virtual time of the failure, the
// original panic value, and the goroutine's stack at the point of the
// panic. Panics inside callbacks carry the proc name "callback", panics
// inside a continuation the name of the proc it ran as.
type ProcPanic struct {
	Proc  string // name of the panicking proc
	T     Time   // virtual time of the panic
	Value any    // original panic value
	Stack []byte // goroutine stack trace at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: panic in proc %q at t=%v: %v", pp.Proc, pp.T, pp.Value)
}

func (pp *ProcPanic) String() string {
	return pp.Error() + "\n" + string(pp.Stack)
}

// EngineStats counts the host-side work a run performed. All counters are
// deterministic: they depend only on the simulated program, never on host
// scheduling, so they are safe to report alongside virtual-time results.
// The counters are independent of the engine's shard count: the same
// program dispatches the same events in the same order at any -shards N.
type EngineStats struct {
	Events    uint64 // events dispatched by Run
	Handoffs  uint64 // proc resumptions (inline, in place or by a goroutine switch; see Inline, InPlace)
	Callbacks uint64 // callbacks executed (incl. chain links)
}

// ShardStats counts per-shard event traffic of a sharded engine. Inbound
// counts events scheduled onto the shard from a different shard's context —
// the cross-node traffic a windowed parallel execution would exchange
// through per-pair queues. Kept separate from EngineStats so the latter
// stays byte-identical across shard counts.
type ShardStats struct {
	Events  uint64 // events dispatched that carried this shard's tag
	Inbound uint64 // events scheduled onto this shard from another shard
}

// event is a single entry in the engine's priority queue: either a proc
// wake-up (p != nil) or a callback (fn != nil). Events are plain values in
// the slice-backed heap, so scheduling allocates nothing. key is non-nil
// only in keyed engines (the windowed sharded mode, see sharded.go); shard
// is the owning shard's tag (always 0 in an unsharded engine).
type event struct {
	t     Time
	seq   uint64
	p     *Proc
	fn    func()
	key   *knode
	shard int32
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: Run, Shutdown, Go, At and After must be called either
// from the goroutine that owns the engine (while Run is not executing a
// proc) or from within a running proc.
//
// An engine built with NewEngineShards(n) tags each event with one of n
// shards (one per simulated node) and counts per-shard traffic; the queue
// stays one heap ordered by (t, seq), so event order — and therefore every
// result, trace and statistic — is the same at any shard count. Events
// inherit the shard of the context that schedules them unless routed
// explicitly (AfterOn, GoIDOn); proc wake-ups always carry the proc's own
// shard, pinning proc↔shard ownership.
type Engine struct {
	now      Time
	seq      uint64
	heap     eventHeap
	curShard int // shard of the event being dispatched (0 outside Run)
	current  *Proc
	ready    *Proc // proc to hand control to when the current callback returns
	live     *Proc // head of the intrusive doubly-linked list of live procs
	nlive    int
	parked   int
	stopped  bool
	until    Time          // horizon of the Run in progress
	driver   chan struct{} // hands the baton back to the goroutine parked in Run
	fail     *ProcPanic    // first panic of the run, re-raised by Run
	trace    func(string)  // optional debug trace hook
	stats    EngineStats
	inplace  uint64       // resumptions served without a goroutine switch (see InPlace)
	inline   uint64       // resumptions whose continuation suspended again (see Inline)
	sstats   []ShardStats // one per shard; len >= 1
	chains   *Chain       // free list of pooled Chain objects

	// Keyed lineage mode (windowed sharding, see sharded.go): every event
	// carries a lineage key encoding its serial scheduling instant, and
	// heaps order same-time events by key instead of seq. rootSeq is shared
	// across a shard group so setup-time keys are globally ordered.
	keyed    bool
	rootSeq  *uint64
	curKey   *knode // key of the event being dispatched (nil outside Run)
	curIdx   uint64 // schedule-call index within the current dispatch
	keyPool  *knode // intrusive free list of recycled lineage nodes (parent = link)
	keyPoolN int
}

// NewEngine returns an empty, unsharded engine with the clock at 0.
func NewEngine() *Engine {
	return NewEngineShards(1)
}

// NewEngineShards returns an empty engine whose events are tagged with and
// counted per one of shards shards (see the Engine doc). shards <= 1 yields
// the plain engine.
func NewEngineShards(shards int) *Engine {
	if shards < 1 {
		shards = 1
	}
	return &Engine{
		sstats: make([]ShardStats, shards),
		driver: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of procs that have been created and have not yet
// finished.
func (e *Engine) Live() int { return e.nlive }

// Parked returns the number of procs currently parked (waiting for Wake or
// a chain completion).
func (e *Engine) Parked() int { return e.parked }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// Stats returns the engine's host-side work counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// InPlace returns how many of Stats().Handoffs were served in place: the
// suspending proc found its own resumption next in the queue and simply
// returned, with no channel operation. The rest, less those served Inline,
// each cost one goroutine switch. Deterministic for a given program and sequence
// of Run calls, but — unlike EngineStats — dependent on Run(until) windowing
// (a proc resumed by a fresh Run is always switched to), so it is kept out
// of the struct that serial and sharded engines compare with ==.
func (e *Engine) InPlace() uint64 { return e.inplace }

// Inline returns how many of Stats().Handoffs ran a continuation (SleepThen,
// ParkThen, WaitThen) inside dispatch that suspended the proc again: the
// proc's goroutine was never involved. A wake-up costs a goroutine switch
// only when it is neither in place nor inline (Handoffs - InPlace - Inline).
// Kept out of EngineStats like InPlace: it describes how the program was
// written, not what it simulated.
func (e *Engine) Inline() uint64 { return e.inline }

// Shards returns the number of shards (1 for a plain engine).
func (e *Engine) Shards() int { return len(e.sstats) }

// ShardStats returns the per-shard dispatch and cross-shard traffic
// counters. The returned slice is a snapshot.
func (e *Engine) ShardStats() []ShardStats {
	out := make([]ShardStats, len(e.sstats))
	copy(out, e.sstats)
	return out
}

// CrossShard returns the total number of events scheduled across shard
// boundaries — the traffic a windowed parallel execution would route
// through per-pair queues.
func (e *Engine) CrossShard() uint64 {
	var n uint64
	for i := range e.sstats {
		n += e.sstats[i].Inbound
	}
	return n
}

// AssertShard panics unless p is owned by the given shard. Runtimes use it
// to enforce that a proc's node assignment is stable for the whole run:
// work migrates between nodes, proc↔shard ownership never does — a
// violation would corrupt window order in a parallel execution, so it must
// fail fast instead.
func (e *Engine) AssertShard(p *Proc, shard int) {
	if p.shard != shard {
		panic(fmt.Sprintf("sim: proc %q owned by shard %d, expected %d — proc↔shard ownership must be stable",
			p.Name(), p.shard, shard))
	}
}

// Stop makes Run return after the current event completes. It may be called
// from inside a proc or callback.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// SetTrace installs a debug trace hook invoked with a line per event.
// Pass nil to disable.
func (e *Engine) SetTrace(fn func(string)) { e.trace = fn }

// nextKey builds the lineage key of the event being scheduled: a child of
// the current dispatch's key, or (outside any dispatch) a root keyed by the
// group-wide setup counter. Nodes come from the engine's free list (see
// newKnode/releaseKey in sharded.go); a child pins its parent with one
// reference. Called only in keyed engines.
func (e *Engine) nextKey() *knode {
	if e.curKey != nil {
		k := e.newKnode(e.now, e.curKey, e.curIdx)
		e.curIdx++
		atomic.AddInt32(&e.curKey.refs, 1)
		return k
	}
	k := e.newKnode(e.now, nil, *e.rootSeq)
	*e.rootSeq++
	return k
}

func (e *Engine) schedule(t Time, shard int, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	var k *knode
	if e.keyed {
		k = e.nextKey()
	}
	if shard != e.curShard {
		e.sstats[shard].Inbound++
	}
	e.heap.push(event{t: t, seq: e.seq, p: p, fn: fn, key: k, shard: int32(shard)})
}

// At schedules fn to run inside event dispatch at virtual time t (which must
// not be in the past).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, e.curShard, nil, fn) }

// After schedules fn to run inside event dispatch d nanoseconds from now.
// The event lands on the shard of the scheduling context.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, e.curShard, nil, fn)
}

// AfterOn is After with an explicit target shard — the routing seam for
// cross-node operations (rdma completions, message deliveries): the
// completion event belongs to the shard owning the target rank's node.
// Out-of-range shards fail fast.
func (e *Engine) AfterOn(shard int, d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if shard < 0 || shard >= len(e.sstats) {
		panic(fmt.Sprintf("sim: AfterOn shard %d out of range [0,%d)", shard, len(e.sstats)))
	}
	e.schedule(e.now+d, shard, nil, fn)
}

// Go creates a new proc that will begin executing body at the current
// virtual time (after already-queued events at this time). The name is used
// in diagnostics only. The proc is owned by the shard of the spawning
// context.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.spawn(0, e.curShard, name, "", 0, body)
}

// GoAfter is Go with a start delay of d virtual nanoseconds.
func (e *Engine) GoAfter(d Time, name string, body func(p *Proc)) *Proc {
	return e.spawn(d, e.curShard, name, "", 0, body)
}

// GoID is Go with a lazily formatted name prefix+id (e.g. "worker", 3 →
// "worker3"): the string is built only if Name is actually called (trace or
// failure diagnostics), keeping fmt off the spawn path of runs that create
// one proc per simulated thread.
func (e *Engine) GoID(prefix string, id int64, body func(p *Proc)) *Proc {
	return e.spawn(0, e.curShard, "", prefix, id, body)
}

// GoIDOn is GoID with explicit shard placement, used at setup time to pin
// each simulated node's procs to its shard. Out-of-range shards fail fast.
func (e *Engine) GoIDOn(shard int, prefix string, id int64, body func(p *Proc)) *Proc {
	if shard < 0 || shard >= len(e.sstats) {
		panic(fmt.Sprintf("sim: GoIDOn shard %d out of range [0,%d)", shard, len(e.sstats)))
	}
	return e.spawn(0, shard, "", prefix, id, body)
}

func (e *Engine) spawn(d Time, shard int, name, prefix string, id int64, body func(p *Proc)) *Proc {
	if d < 0 {
		panic("sim: negative delay")
	}
	p := &Proc{
		eng:    e,
		name:   name,
		prefix: prefix,
		id:     id,
		shard:  shard,
		ch:     make(chan wakeSignal),
		state:  StateNew,
	}
	e.link(p)
	go func() {
		finished := <-p.ch == wakeRun && p.run(body)
		p.state = StateDead
		e.unlink(p)
		if finished {
			e.pass(e.dispatch()) // exiting with the baton: hand it on
		} else {
			p.ch <- wakeDone // killed: Shutdown is waiting for the goroutine
		}
	}()
	p.state = StateScheduled
	e.schedule(e.now+d, p.shard, p, nil)
	return p
}

// link prepends p to the live list.
func (e *Engine) link(p *Proc) {
	p.nextLive = e.live
	if e.live != nil {
		e.live.prevLive = p
	}
	e.live = p
	e.nlive++
}

// unlink removes p from the live list.
func (e *Engine) unlink(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.live = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
	e.nlive--
}

// Run executes events until the queue is empty, Stop is called, or the next
// event lies beyond the until horizon (pass Forever for no horizon). It
// returns the virtual time at which it stopped. When a horizon is given and
// events remain beyond it, the clock is advanced exactly to the horizon.
//
// Run dispatches on the caller's goroutine until the first proc must run,
// hands it the baton, and parks; from then on each suspending or exiting
// proc dispatches the next event itself (see dispatch), and the baton comes
// back here only when dispatch has nothing left to do.
//
// A panic escaping an event — a proc body or a callback — is re-raised from
// Run as a *ProcPanic after the remaining procs are torn down, so no
// goroutines leak past a failed simulation.
func (e *Engine) Run(until Time) Time {
	e.until = until
	if p := e.dispatch(); p != nil {
		p.ch <- wakeRun
		<-e.driver
	}
	e.releaseCur()
	if pp := e.fail; pp != nil {
		e.fail = nil
		e.Shutdown()
		panic(pp)
	}
	return e.now
}

// dispatch is the engine's one event loop, run by whichever goroutine holds
// the baton: Run's caller at first, then every proc that suspends or exits.
// It pops events in order, runs callbacks inline, and returns the next proc
// to resume (already marked running and counted) — or nil when the run is
// over for now (queue empty, Stop, horizon, recorded failure) and the baton
// belongs back in Run. A wake-up of a proc suspended in continuation form
// runs the continuation here, as that proc, and is over if the continuation
// suspends again; only one that returns still running needs the proc's
// goroutine. A panicking callback is recorded as the failure of the
// pseudo-proc "callback" — a panicking continuation as that of the proc it
// ran as — rather than unwinding the goroutine it happened to execute on; the
// recovered dispatch returns nil.
func (e *Engine) dispatch() *Proc {
	defer func() {
		if r := recover(); r != nil {
			who := "callback"
			if p := e.current; p != nil {
				// p's goroutine is blocked in Await (or is this one, about to
				// be): leave it suspended for Shutdown to unwind.
				who = p.Name()
				p.cont, p.state = nil, StateParked
			}
			e.failed(who, r)
		}
	}()
	e.current = nil
	for !e.stopped {
		// The previous event's children hold their own key references by now.
		e.releaseCur()
		if len(e.heap) == 0 {
			break
		}
		ev := e.heap.peek()
		if e.until >= 0 && ev.t > e.until {
			e.now = e.until
			break
		}
		e.heap.pop()
		e.now = ev.t
		e.curShard = int(ev.shard)
		if e.keyed {
			e.curKey = ev.key
			e.curIdx = 0
		}
		p, verb := ev.p, "run"
		if ev.fn == nil && p.state == StateDead {
			continue // a killed proc can leave a stale event behind
		}
		e.stats.Events++
		e.sstats[ev.shard].Events++
		if ev.fn != nil {
			if e.trace != nil {
				e.trace(fmt.Sprintf("t=%v callback", e.now))
			}
			e.stats.Callbacks++
			ev.fn()
			// A chain completed inside the callback resumes its proc within
			// this same event, at exactly the (time, seq) of the final link.
			p, e.ready, verb = e.ready, nil, "resume"
		}
		if p == nil {
			continue
		}
		if e.trace != nil {
			e.trace(fmt.Sprintf("t=%v %s %q", e.now, verb, p.Name()))
		}
		p.state = StateRunning
		e.current = p
		// The proc may be resumed from an event on a foreign shard (a completion
		// callback routed to the target node's shard finishing the proc's chain).
		// Anything the proc schedules while running belongs to its own shard.
		e.curShard = p.shard
		e.stats.Handoffs++
		if fn := p.cont; fn != nil {
			p.cont = nil
			fn()
			if p.state != StateRunning {
				e.inline++
				e.current = nil
				continue
			}
		}
		return p
	}
	return nil
}

// pass hands the baton to next, or back to Run when dispatch ran dry.
func (e *Engine) pass(next *Proc) {
	if next != nil {
		next.ch <- wakeRun
	} else {
		e.driver <- struct{}{}
	}
}

// releaseCur drops the dispatched event's reference on its lineage key
// (keyed engines only): children scheduled during the dispatch hold their
// own, so this recycles exactly the nodes no live event can reach.
func (e *Engine) releaseCur() {
	if k := e.curKey; k != nil {
		e.curKey = nil
		e.releaseKey(k)
	}
}

// failed records the run's first panic and stops dispatch; Run re-raises it
// on its caller's goroutine. It must be called from the deferred recover
// itself, while the panicking frames are still on the stack.
func (e *Engine) failed(who string, r any) {
	if e.fail == nil {
		buf := make([]byte, 64<<10)
		e.fail = &ProcPanic{Proc: who, T: e.now, Value: r, Stack: buf[:runtime.Stack(buf, false)]}
	}
	e.stopped = true
}

// Deadlocked reports whether the simulation has reached a state with no
// pending events but live parked procs — i.e. progress is impossible.
func (e *Engine) Deadlocked() bool {
	return e.Pending() == 0 && e.parked > 0
}

// Shutdown force-kills all live procs so their goroutines exit. It must be
// called from outside Run (i.e. not from a proc or callback). After
// Shutdown the engine must not be reused. Procs are killed in reverse
// creation order (deterministically — the live list is intrusive, not a
// map), unwinding any pending completion chains with them.
func (e *Engine) Shutdown() {
	e.stopped = true
	for e.live != nil {
		p := e.live
		switch p.state {
		case StateParked, StateScheduled, StateNew:
			p.state = StateDead
			p.ch <- wakeKill
			<-p.ch
		default:
			panic(fmt.Sprintf("sim: Shutdown with proc %q in state %v", p.Name(), p.state))
		}
	}
	e.heap = nil
	e.chains = nil
	e.ready = nil
	e.keyPool = nil
	e.keyPoolN = 0
}

// Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time by the engine. All methods must be called from the
// proc's own body.
type Proc struct {
	eng  *Engine
	name string // explicit name, or "" when prefix+id is formatted lazily
	id   int64

	// ch is the proc's single wake-up channel: a suspended proc blocks on it
	// until the baton holder sends wakeRun (or Shutdown sends wakeKill and
	// reads the wakeDone acknowledgement). Unbuffered, so every transfer is
	// a direct rendezvous the Go scheduler can service without a queue
	// round trip.
	ch chan wakeSignal

	prefix             string
	shard              int // owning shard; stable for the proc's lifetime
	state              ProcState
	prevLive, nextLive *Proc

	// cont, when non-nil, is what the proc's next wake-up runs inside
	// dispatch instead of resuming its goroutine (see SleepThen).
	cont func()
}

// Name returns the diagnostic name given at creation, formatting a lazy
// prefix+id name on demand.
func (p *Proc) Name() string {
	if p.name != "" {
		return p.name
	}
	return p.prefix + strconv.FormatInt(p.id, 10)
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// State returns the proc's lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Shard returns the shard that owns this proc (0 in an unsharded engine).
func (p *Proc) Shard() int { return p.shard }

// run executes body, reporting whether it ended by itself (returned or
// panicked, the panic recorded for Run) rather than unwound by Shutdown.
func (p *Proc) run(body func(p *Proc)) (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				p.eng.failed(p.Name(), r)
				finished = true
			}
		}
	}()
	body(p)
	return true
}

// Await blocks the proc's goroutine until the proc is running again with no
// continuation pending: at once if it never suspended (or its continuations
// all finished synchronously), otherwise when a wake-up's continuation
// returns without suspending again — or, after a plain nil continuation, at
// the wake-up itself. The goroutine holds the baton and so dispatches what
// comes next itself: if that turns out to be its own resumption it just
// returns — the clock advanced in place, no channel operation; otherwise it
// wakes the next proc directly (one goroutine switch) and blocks until
// somebody wakes it. Must be called from the proc's own goroutine.
func (p *Proc) Await() {
	if p.state == StateRunning {
		return
	}
	e := p.eng
	next := e.dispatch()
	if next == p {
		e.inplace++
		return
	}
	e.pass(next)
	if <-p.ch == wakeKill {
		panic(killed{})
	}
}

// suspending panics unless p is the running proc — on its own goroutine or
// inside one of its continuations.
func (p *Proc) suspending(what string) {
	if p.eng.current != p || p.state != StateRunning {
		p.notCurrent(what) // out of line: keeps this check inlinable
	}
}

func (p *Proc) notCurrent(what string) {
	panic(fmt.Sprintf("sim: %s called on proc %q that is not current", what, p.Name()))
}

// SleepThen is Sleep in continuation form: it suspends the proc for d
// nanoseconds of virtual time and returns at once; the wake-up — the same
// event Sleep schedules — runs then inside dispatch, as this proc. A
// continuation may suspend the proc again (SleepThen, ParkThen, WaitThen),
// and a wake-up whose continuation does so never touches the proc's
// goroutine. The goroutine itself must call Await after suspending this way
// and before doing anything else with the engine; a nil then makes the
// wake-up resume it there. Continuations must not call the blocking forms.
func (p *Proc) SleepThen(d Time, then func()) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.suspending("Sleep")
	p.state = StateScheduled
	p.cont = then
	p.eng.schedule(p.eng.now+d, p.shard, p, nil)
}

// Sleep suspends the proc for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	p.SleepThen(d, nil)
	p.Await()
}

// ParkThen is Park in continuation form (see SleepThen): then runs at the
// wake-up that follows somebody's Wake.
func (p *Proc) ParkThen(then func()) {
	p.suspending("Park")
	p.state = StateParked
	p.cont = then
	p.eng.parked++
}

// Park suspends the proc until another proc or a callback calls Wake (or
// WakeAfter) on it.
func (p *Proc) Park() {
	p.ParkThen(nil)
	p.Await()
}

// Wake makes a parked proc runnable at the current virtual time. It panics
// if the proc is not parked; use State to guard when unsure.
func (e *Engine) Wake(p *Proc) { e.WakeAfter(p, 0) }

// WakeAfter makes a parked proc runnable d nanoseconds from now.
func (e *Engine) WakeAfter(p *Proc, d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if p.state != StateParked {
		panic(fmt.Sprintf("sim: Wake of proc %q in state %v", p.Name(), p.state))
	}
	e.parked--
	p.state = StateScheduled
	e.schedule(e.now+d, p.shard, p, nil)
}

// Chain is a split-phase completion chain: a state machine of timed
// callbacks standing in for a sequence of blocking Sleeps (see the package
// comment). The issuing proc creates the chain, issues the first link, and
// calls Wait; each link's callback performs its memory access and either
// schedules the next link (Then) or finishes the protocol (Complete), which
// resumes the waiting proc within the same event. A chain whose every step
// turns out to be immediate (e.g. all-local fabric operations) may Complete
// synchronously before Wait is called; Wait then returns without parking.
type Chain struct {
	eng     *Engine
	p       *Proc
	done    bool
	waiting bool   // proc is parked in Wait
	then    func() // WaitThen's continuation
	woken   func() // c.release, bound once: the proc's continuation while it waits
	next    *Chain // engine free list
}

// NewChain returns a (pooled) chain that will wake p on completion. It must
// be called by p itself, before the proc suspends.
func (e *Engine) NewChain(p *Proc) *Chain {
	c := e.chains
	if c != nil {
		e.chains = c.next
		c.p = p
		c.done = false
		c.waiting = false
		c.next = nil
		return c
	}
	c = &Chain{eng: e, p: p}
	c.woken = c.release
	return c
}

// Then schedules the next link of the chain: fn runs inside event dispatch
// d nanoseconds from now — the split-phase equivalent of
// Sleep(d) followed by fn inline. One link consumes exactly one event and
// one sequence number, like the Sleep it replaces.
func (c *Chain) Then(d Time, fn func()) { c.eng.After(d, fn) }

// Complete finishes the chain. Called from inside a link's callback it
// arranges for the waiting proc to resume within the current event (same
// virtual time, same sequence number); called synchronously — before the
// issuing proc ever suspended — it just marks the chain done so Wait
// returns immediately.
func (c *Chain) Complete() {
	c.done = true
	if c.waiting {
		if c.eng.ready != nil {
			panic("sim: two chains completed within one event")
		}
		c.waiting = false
		c.eng.parked--
		c.eng.ready = c.p
	}
}

// WaitThen is Wait in continuation form (see Proc.SleepThen): once the chain
// has completed — which may be now — it is released back to the engine pool
// (it must not be used afterwards) and then runs as the issuing proc.
func (c *Chain) WaitThen(then func()) {
	c.then = then
	if c.done {
		c.p.suspending("Chain.Wait")
		c.release()
		return
	}
	c.waiting = true
	c.p.ParkThen(c.woken)
}

// release returns the chain to the pool and runs its continuation, if any.
func (c *Chain) release() {
	e, then := c.eng, c.then
	c.p, c.then = nil, nil
	c.next = e.chains
	e.chains = c
	if then != nil {
		then()
	}
}

// Wait suspends the issuing proc until Complete, then releases the chain
// back to the engine pool (the chain must not be used after Wait): WaitThen
// for a blocking caller, who can release the chain itself.
func (c *Chain) Wait() {
	p := c.p
	if c.done {
		p.suspending("Chain.Wait")
	} else {
		c.waiting = true
		p.ParkThen(nil)
		p.Await()
	}
	c.release()
}
