// Package sim implements a deterministic, process-oriented discrete-event
// simulator (DES). It is the substrate on which the whole repository runs:
// simulated cluster workers, user-level threads, and network operations are
// all simulated processes ("procs") advancing a shared virtual clock.
//
// # Model
//
// An Engine owns a virtual clock and a priority queue of events. A Proc is a
// coroutine that runs only while it holds the engine's baton; at any instant
// exactly one holds it — Run's caller, or one proc — and whoever holds it
// dispatches the next event itself when it suspends, so a simulation is
// fully sequential and deterministic: two runs with the same inputs produce
// the same event order, the same virtual timestamps, and the same results,
// regardless of GOMAXPROCS.
//
// Procs interact with virtual time through three primitives:
//
//   - Sleep(d): suspend for d nanoseconds of virtual time.
//   - Park(): suspend until some other proc (or callback) calls Wake.
//   - Wake(p)/WakeAfter(p, d): make a parked proc runnable (now or later).
//
// The engine additionally supports plain callback events via At/After (and
// AtEach, a sorted batch of them), which run inline on whichever coroutine
// is dispatching (never concurrently with a proc body).
//
// Each suspension also has a continuation form — SleepThen, ParkThen,
// Chain.WaitThen — that returns at once and runs a function at the wake-up,
// inside event dispatch, as that proc (same event, same (time, seq): Sleep
// is SleepThen with no continuation, followed by Await). A
// continuation may suspend its proc again, so a cycle that mostly waits — an
// idle worker's pop miss, failed steal and backoff — is written as a chain of
// them and reaches the proc's coroutine, suspended in Await, only when one
// returns with something for it to do. A body may also end in such a wait
// (AwaitThen): it returns at once, and its continuations either end the proc
// (Exit) or leave the rest of the body to the coroutine.
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
// There is no driver goroutine between two procs. Each proc is a Go runtime
// coroutine (iter.Pull over its serve loop), and a suspending (or exiting)
// proc runs the event loop itself: callbacks cost a queue pop plus a function
// call (~25 ns), and a proc's wake-up costs one of three things. Inline: the
// proc suspended in continuation form, so the dispatcher calls the
// continuation, and if that suspends the proc again the wake-up is over —
// about a callback's cost (~28 ns), whichever proc it belongs to. In place:
// the proc to resume is the dispatcher itself, suspended in Await, which just
// returns — a clock advance, no switch (~29 ns). Switched: the dispatcher
// names the other proc and yields to Run, whose trampoline resumes that
// proc's coroutine — two coroutine switches that bypass the Go scheduler
// (~230 ns together). Hot paths avoid switches: multi-op protocols use
// completion chains (one resumption per protocol), cycles that wait more than
// they work use continuations (no resumption until there is work), and a
// body whose last steps are continuations returns into them (AwaitThen) and
// ends from the last of them (Exit: the proc is pooled there, its coroutine
// already back in its serve loop with no frame of the body left, so the end
// costs no resumption and no unwinding). Live procs are kept on an intrusive
// list (no map operations on spawn/death), spawn reuses a finished proc's
// coroutine and Proc (a coroutine whose body returns joins the engine's pool
// instead of exiting, keeping the stack it grew; Run drains the pool when it
// ends with no proc live, Shutdown after killing the live ones, so no
// goroutine outlives its simulation), proc names are formatted lazily (no fmt on the
// spawn path; see GoID), events are plain values in reused rings and slices
// (no per-event allocation), and a sorted batch of timers known in advance
// — an open system's arrival trace — is one AtEach: it holds one queue entry,
// its next timer, and one closure, so the queue holds the simulation's
// pending events rather than every future arrival. The queue itself follows
// the model's few fixed latencies: events scheduled with one recurring delay
// are already in (time, seq) order, so each such delay queues its events in
// a FIFO lane and a pop picks among the lanes' heads and a small overflow
// heap — about 10 entries where one heap over every pending event held 72 in
// a steal-bound run (see eventQueue). A coroutine switch runs
// on the thread of the goroutine that calls Run, so GOMAXPROCS affects
// neither an engine's event order nor its switch cost; when many engines
// run concurrently (parallel experiment sweeps, one engine per host
// goroutine), each uses one thread at a time. EngineStats reports how many
// events, proc resumptions and callbacks a run executed, Inline and InPlace
// how many resumptions needed no switch, so throughput (events/sec) and the
// switch-avoidance ratio are directly measurable.
//
// # Failure propagation
//
// A panic inside a proc body is captured and re-raised as a *ProcPanic
// from the Engine.Run call driving the simulation — i.e. on the caller's
// goroutine, where it can be recovered per run. A panic inside a callback
// (including a chain link) is wrapped the same way, attributed to the
// pseudo-proc "callback", and a panic inside a continuation to the proc it
// ran as — both are caught inside dispatch, because the coroutine they
// happen to run on is usually some other suspended proc's. The engine shuts
// down its remaining procs first, so no goroutines leak past the failure.
package sim

import (
	"fmt"
	"iter"
	"runtime"
	"strconv"
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

// killed is the panic payload used to unwind a proc's coroutine during
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
type EngineStats struct {
	Events    uint64 // events dispatched by Run
	Handoffs  uint64 // proc resumptions (inline, in place or by a coroutine switch; see Inline, InPlace)
	Callbacks uint64 // callbacks executed (incl. chain links)
}

// event is a single entry in the engine's priority queue: either a proc
// wake-up (p != nil) or a callback (fn != nil). Events are plain values in
// the queue's lane rings and overflow heap, so scheduling allocates nothing
// once those have grown.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: Run, Shutdown, Go, At and After must be called either
// from the goroutine that owns the engine (while Run is not executing a
// proc) or from within a running proc.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	current *Proc
	ready   *Proc // proc to hand control to when the current callback returns
	live    *Proc // head of the intrusive doubly-linked list of live procs
	free    *Proc // pool of procs whose body returned (see spawn, serve)
	nlive   int
	parked  int
	stopped bool
	until   Time         // horizon of the Run in progress
	handTo  *Proc        // the proc Run resumes next, set by the proc handing over
	fail    *ProcPanic   // first panic of the run, re-raised by Run
	trace   func(string) // optional debug trace hook
	stats   EngineStats
	inplace uint64 // resumptions served without a coroutine switch (see InPlace)
	inline  uint64 // resumptions whose continuation suspended again (see Inline)
	chains  *Chain // free list of pooled Chain objects
}

// NewEngine returns an empty engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live returns the number of procs that have been created and have not yet
// finished.
func (e *Engine) Live() int { return e.nlive }

// Parked returns the number of procs currently parked (waiting for Wake or
// a chain completion).
func (e *Engine) Parked() int { return e.parked }

// Pending returns the number of queued events, in lanes and overflow alike. An
// AtEach batch counts as its next timer alone, the only one it keeps queued.
func (e *Engine) Pending() int { return e.queue.len() }

// Stats returns the engine's host-side work counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// InPlace returns how many of Stats().Handoffs were served in place: the
// suspending proc found its own resumption next in the queue and simply
// returned, with no switch (or an exiting proc found its own restart,
// respawned from the pool, and ran the new body on the same coroutine). The
// rest, less those served Inline, each cost a switch through Run. Deterministic for a given program and sequence
// of Run calls, but — unlike EngineStats — dependent on Run(until) windowing
// (a proc resumed by a fresh Run is always switched to), so it is kept out
// of EngineStats.
func (e *Engine) InPlace() uint64 { return e.inplace }

// Inline returns how many of Stats().Handoffs ran a continuation (SleepThen,
// ParkThen, WaitThen) inside dispatch that suspended the proc again: the
// proc's coroutine was never involved. A wake-up costs a coroutine switch
// only when it is neither in place nor inline (Handoffs - InPlace - Inline).
// Kept out of EngineStats like InPlace: it describes how the program was
// written, not what it simulated.
func (e *Engine) Inline() uint64 { return e.inline }

// Stop makes Run return after the current event completes. It may be called
// from inside a proc or callback.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// SetTrace installs a debug trace hook invoked with a line per event.
// Pass nil to disable.
func (e *Engine) SetTrace(fn func(string)) { e.trace = fn }

func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	e.queue.push(t-e.now, event{t: t, seq: e.seq, p: p, fn: fn})
}

// At schedules fn to run inside event dispatch at virtual time t (which must
// not be in the past).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, fn) }

// AtEach schedules fn(i) to run inside event dispatch at virtual time ts[i],
// for every i: the same events, at the same (time, seq), as len(ts) calls
// At(ts[i], func() { fn(i) }) made now — it reserves their sequence numbers
// at once. ts must be sorted and not in the past. The batch keeps only its
// next timer queued and queues the one after it when that one fires, so a
// long arrival trace holds one queue entry, not len(ts), and costs no
// allocation per timer. ts is read in place until its last timer fires.
func (e *Engine) AtEach(ts []Time, fn func(i int)) {
	if len(ts) == 0 {
		return
	}
	if ts[0] < e.now {
		panic(fmt.Sprintf("sim: AtEach time ts[0]=%dns is in the past (now %dns)", ts[0], e.now))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			panic(fmt.Sprintf("sim: AtEach times are not sorted: ts[%d]=%dns before ts[%d]=%dns", i, ts[i], i-1, ts[i-1]))
		}
	}
	b := &timerBatch{e: e, ts: ts, fn: fn, seq: e.seq + 1}
	b.fire = b.next
	e.seq += uint64(len(ts))
	e.queue.over.push(event{t: ts[0], seq: b.seq, fn: b.fire}) // seq reserved: no lane
}

// timerBatch is an AtEach batch: its timer i is queued, with sequence number
// seq, and the timers after it are not yet.
type timerBatch struct {
	e    *Engine
	ts   []Time
	fn   func(i int)
	i    int
	seq  uint64
	fire func() // next, bound once: the callback of every queued timer
}

// next runs timer i after queueing timer i+1 at its reserved sequence number.
// Both follow the event now dispatched in (time, seq) order, so queueing it
// now rather than at AtEach changes no dispatch order. The timer goes to the
// queue's overflow heap, not a lane: its sequence number precedes those of
// events already queued.
func (b *timerBatch) next() {
	i := b.i
	if b.i++; b.i < len(b.ts) {
		b.seq++
		b.e.queue.over.push(event{t: b.ts[b.i], seq: b.seq, fn: b.fire})
	}
	b.fn(i)
}

// After schedules fn to run inside event dispatch d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, nil, fn)
}

// Go creates a new proc that will begin executing body at the current
// virtual time (after already-queued events at this time). The name is used
// in diagnostics only. The returned *Proc is valid until the proc ends — its
// body returns, other than into a wait (AwaitThen), or it Exits; after that
// the engine may hand the same *Proc to a later Go.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.spawn(0, name, "", 0, body)
}

// GoAfter is Go with a start delay of d virtual nanoseconds.
func (e *Engine) GoAfter(d Time, name string, body func(p *Proc)) *Proc {
	return e.spawn(d, name, "", 0, body)
}

// GoID is Go with a lazily formatted name prefix+id (e.g. "worker", 3 →
// "worker3"): the string is built only if Name is actually called (trace or
// failure diagnostics), keeping fmt off the spawn path of runs that create
// one proc per simulated thread.
func (e *Engine) GoID(prefix string, id int64, body func(p *Proc)) *Proc {
	return e.spawn(0, "", prefix, id, body)
}

// spawn hands body to a pooled proc — one whose body returned, its coroutine
// suspended in serve — or, with the pool empty, to a new Proc and coroutine.
func (e *Engine) spawn(d Time, name, prefix string, id int64, body func(p *Proc)) *Proc {
	if d < 0 {
		panic("sim: negative delay")
	}
	p := e.free
	if p != nil {
		e.free = p.nextLive
	} else {
		p = &Proc{eng: e}
		p.resume, p.stop = iter.Pull(p.serve)
	}
	p.name, p.prefix, p.id = name, prefix, id
	p.body, p.cont = body, nil
	p.state = StateScheduled
	e.link(p)
	e.schedule(e.now+d, p, nil)
	return p
}

// serve is a proc's coroutine, first entered at the proc's start. It runs
// one body per spawn: when a body returns, the coroutine still holds the
// baton, so it puts the proc in the engine's pool and hands over — and the
// next resumption starts the proc again, with the body of a Go that popped it
// from the pool (in place, when a callback of this very dispatch did). It
// returns only when stopped: by Shutdown, or by drain once nothing is live.
// A body that recovers Shutdown's unwinding returns with the proc already
// dead and unlinked, so that ends the coroutine too.
//
// A body that returned into a wait (AwaitThen) leaves the proc live: the
// coroutine hands over all the same, and its next resumption, unless it is a
// stop, runs p.body — the rest of that body, or, when a continuation ended
// the proc (Exit), the body of the Go that popped it from the pool.
func (p *Proc) serve(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() && p.state != StateDead {
		if !p.tail {
			p.pool()
		}
		if !p.handOver() {
			return
		}
	}
}

// pool ends the proc whose body is over: it is dead, off the live list, and
// first in line for the next Go.
func (p *Proc) pool() {
	e := p.eng
	p.state = StateDead
	e.unlink(p)
	p.body = nil
	p.nextLive = e.free
	e.free = p
}

// drain stops the pooled procs' coroutines.
func (e *Engine) drain() {
	for p := e.free; p != nil; p = e.free {
		e.free, p.nextLive = p.nextLive, nil
		p.stop()
	}
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
// events remain beyond it, the clock is advanced exactly to the horizon. A
// horizon before Now() panics: the clock never runs backwards.
//
// Run dispatches on the caller's goroutine until the first proc must run and
// resumes its coroutine. From then on each suspending or exiting proc
// dispatches the next event itself (see dispatch); a proc that must hand over
// to another names it in handTo and yields back here, and Run resumes that
// one — a trampoline, so Run is the only caller of a coroutine's resume. The
// loop ends when a proc yields with dispatch having nothing left to do.
//
// A panic escaping an event — a proc body or a callback — is re-raised from
// Run as a *ProcPanic after the remaining procs are torn down, so no
// goroutines leak past a failed simulation. A Run that ends with no live proc
// drains the pool of finished ones too, so a run that completes leaves no
// goroutine behind even if Shutdown is never called.
func (e *Engine) Run(until Time) Time {
	if until >= 0 && until < e.now {
		panic(fmt.Sprintf("sim: Run until %dns is in the past (now %dns)", until, e.now))
	}
	e.until = until
	for p := e.dispatch(); p != nil; p = e.handTo {
		p.resume()
	}
	if pp := e.fail; pp != nil {
		e.fail = nil
		e.Shutdown()
		panic(pp)
	}
	if e.nlive == 0 {
		e.drain()
	}
	return e.now
}

// dispatch is the engine's one event loop, run by whichever coroutine holds
// the baton: Run's caller at first, then every proc that suspends or exits.
// It pops events in order, runs callbacks inline, and returns the next proc
// to resume (already marked running and counted) — or nil when the run is
// over for now (queue empty, Stop, horizon, recorded failure) and the baton
// belongs back in Run. A wake-up of a proc suspended in continuation form
// runs the continuation here, as that proc, and is over if the continuation
// suspends again; only one that returns still running needs the proc's
// coroutine. A panicking callback is recorded as the failure of the
// pseudo-proc "callback" — a panicking continuation as that of the proc it
// ran as — rather than unwinding the coroutine it happened to execute on; the
// recovered dispatch returns nil.
func (e *Engine) dispatch() *Proc {
	defer func() {
		if r := recover(); r != nil {
			who := "callback"
			if p := e.current; p != nil {
				// p's coroutine is suspended in Await (or is this one, about
				// to be): leave it suspended for Shutdown to unwind.
				who = p.Name()
				p.cont, p.state = nil, StateParked
			}
			e.failed(who, r)
		}
	}()
	e.current = nil
	for !e.stopped {
		ev, ok := e.queue.pop(e.until)
		if !ok {
			if !e.queue.empty() {
				e.now = e.until // the next event lies beyond the horizon
			}
			break
		}
		e.now = ev.t
		p, verb := ev.p, "run"
		if ev.fn == nil && p.state == StateDead {
			continue // a killed proc can leave a stale event behind
		}
		e.stats.Events++
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

// Shutdown force-kills all live procs so their coroutines exit, then the
// pooled ones. It must be called from outside Run (i.e. not from a proc or
// callback). After Shutdown the engine must not be reused. Procs are killed
// in reverse creation order (deterministically — the live list is intrusive,
// not a map), unwinding any pending completion chains with them.
func (e *Engine) Shutdown() {
	e.stopped = true
	for e.live != nil {
		p := e.live
		switch p.state {
		case StateParked, StateScheduled, StateNew:
			// Unlinked here: a proc killed before its start never entered serve.
			p.state = StateDead
			e.unlink(p)
			p.stop()
		default:
			panic(fmt.Sprintf("sim: Shutdown with proc %q in state %v", p.Name(), p.state))
		}
	}
	e.drain()
	e.queue = eventQueue{}
	e.chains = nil
	e.ready = nil
}

// Proc is a simulated process: a coroutine whose execution is interleaved
// with virtual time by the engine. All methods must be called from the
// proc's own body or continuations. A *Proc is valid until the proc ends (see
// Go); after that the engine may hand it, coroutine and all, to a later Go.
type Proc struct {
	eng  *Engine
	name string // explicit name, or "" when prefix+id is formatted lazily
	id   int64
	body func(p *Proc) // what the proc runs; nil while it sits in the pool

	// The proc's coroutine (iter.Pull over serve): resume runs it until its
	// next hand-over and is called by Run alone; yield, held by serve, is
	// that hand-over, and reports false once stop (Shutdown, drain) has
	// asked the coroutine to unwind.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	prefix             string
	state              ProcState
	prevLive, nextLive *Proc // the live list; nextLive links the pool while dead

	// cont, when non-nil, is what the proc's next wake-up runs inside
	// dispatch instead of resuming its coroutine (see SleepThen).
	cont func()
	// tail is set from a body's AwaitThen until the coroutine runs again: the
	// body has returned into the proc's wait, which only Exit or the rest of
	// the body ends.
	tail bool
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

// run executes the body, reporting whether it ended by itself (returned,
// possibly into a wait, or panicked, the panic recorded for Run) rather than
// unwound by Shutdown.
func (p *Proc) run() (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				p.eng.failed(p.Name(), r)
				finished = true
			}
		}
	}()
	p.tail = false
	p.body(p)
	if !p.tail && (p.state == StateScheduled || p.state == StateParked) {
		panic(fmt.Sprintf("sim: body of proc %q returned suspended, without AwaitThen", p.Name()))
	}
	return true
}

// Await blocks the proc's coroutine until the proc is running again with no
// continuation pending: at once if it never suspended (or its continuations
// all finished synchronously), otherwise when a wake-up's continuation
// returns without suspending again — or, after a plain nil continuation, at
// the wake-up itself. The coroutine holds the baton and so dispatches what
// comes next itself (see handOver). Must be called from the proc's own body.
func (p *Proc) Await() {
	if p.state == StateRunning {
		return
	}
	if !p.handOver() {
		panic(killed{})
	}
}

// AwaitThen is Await in tail position: a body calls it as its last step and
// returns at once, leaving no frame on the coroutine, and rest runs there as
// the rest of the body when Await would have returned — at once if the proc
// is running. Until then the proc's continuations may end the body instead
// (Exit), so a body whose last steps are continuations ends without its
// coroutine being resumed for them.
func (p *Proc) AwaitThen(rest func(p *Proc)) {
	if p.state == StateRunning {
		rest(p)
		return
	}
	p.body, p.tail = rest, true
}

// Exit ends the proc from one of its own continuations while its body waits
// in AwaitThen: the proc is dead and pooled at once, as if the body had
// returned now, and the continuation must leave it alone afterwards. Its
// coroutine, already back in serve, next runs the body of a later Go, or
// stops at drain or Shutdown.
func (p *Proc) Exit() {
	p.suspending("Exit")
	if !p.tail {
		panic(fmt.Sprintf("sim: Exit of proc %q outside a continuation of AwaitThen", p.Name()))
	}
	p.pool()
}

// handOver runs the event loop as the suspended (or exited) p. If the next
// proc to resume is p itself it just returns — the clock advanced in place;
// otherwise it names that proc (nil when dispatch ran dry) in handTo and
// yields to Run, which resumes it: two coroutine switches, no scheduler. It
// reports false when p's coroutine was stopped instead of resumed.
func (p *Proc) handOver() bool {
	e := p.eng
	next := e.dispatch()
	if next == p {
		e.inplace++
		return true
	}
	e.handTo = next
	return p.yield(struct{}{})
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
// coroutine. The coroutine itself must call Await after suspending this way
// and before doing anything else with the engine; a nil then makes the
// wake-up resume it there. Continuations must not call the blocking forms.
func (p *Proc) SleepThen(d Time, then func()) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.suspending("Sleep")
	p.state = StateScheduled
	p.cont = then
	p.eng.schedule(p.eng.now+d, p, nil)
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
	e.schedule(e.now+d, p, nil)
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
