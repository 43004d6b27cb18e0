package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"contsteal/internal/allocs"
)

// The proc pool: a proc whose body returns keeps its coroutine and Proc for
// the next Go (see spawn and serve).

// within runs fn on its own goroutine and fails the test if it has not
// returned after a few seconds — the shape a baton handed to nobody takes.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hangs", what)
	}
}

func pooled(e *Engine) (n int) {
	for p := e.free; p != nil; p = p.nextLive {
		n++
	}
	return n
}

// TestRespawnOntoItself: a callback run by the dispatch of an exiting proc's
// coroutine spawns, takes that very proc from the pool, and its start is the
// next event. The coroutine must run the new body itself, in place.
func TestRespawnOntoItself(t *testing.T) {
	e := NewEngine()
	var second *Proc
	ran := false
	first := e.Go("first", func(p *Proc) {
		// Due after first has returned, with nothing else queued.
		e.After(5, func() {
			second = e.Go("second", func(q *Proc) {
				q.Sleep(1)
				ran = true
			})
		})
	})
	within(t, "Run", func() { e.Run(Forever) })
	if second != first {
		t.Error("the Go after an exit made a new proc; want the pooled one")
	}
	if !ran || e.Now() != 6 || e.Live() != 0 {
		t.Errorf("ran=%v now=%v live=%d, want true, 6, 0", ran, e.Now(), e.Live())
	}
	// first's start is switched to from Run; second's start and its wake-up
	// both find the dispatcher itself.
	if st := e.Stats(); st.Handoffs != 3 || e.InPlace() != 2 {
		t.Errorf("Handoffs=%d InPlace=%d, want 3 and 2", st.Handoffs, e.InPlace())
	}
}

// TestSwitchAllocFree is the allocation gate of a switched resumption: two
// procs alternating Sleep(1) always find the other one next, so once both
// coroutines run every resumption is a switch, and switching allocates
// nothing.
func TestSwitchAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	for i := 0; i < 2; i++ {
		e.GoID("w", int64(i), func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
	}
	e.Run(100)
	handoffs, kept := e.Stats().Handoffs, e.InPlace()+e.Inline()
	if m := allocs.Count(50, func() { e.Run(e.Now() + 100) }); m != 0 {
		t.Errorf("50 windows of switches allocated %d times, want 0", m)
	}
	if e.Stats().Handoffs == handoffs || e.InPlace()+e.Inline() != kept {
		t.Errorf("window: %d resumptions, %d in place or inline; want some, none",
			e.Stats().Handoffs-handoffs, e.InPlace()+e.Inline()-kept)
	}
}

// TestShutdownDrainsPoolAndRecycled: Shutdown kills live procs — among them
// recycled ones whose new body has not started and a new one whose coroutine
// was never entered — and then the pooled ones.
func TestShutdownDrainsPoolAndRecycled(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	body := func(p *Proc) { t.Error("a killed proc ran") }
	e.Go("keeper", func(p *Proc) { p.Park() }) // live, so Run keeps the pool
	for i := 0; i < 4; i++ {
		e.GoID("short", int64(i), func(p *Proc) { p.Sleep(1) })
	}
	e.GoAfter(Second, "fresh", body) // beyond the horizon: never entered
	e.Run(10)
	e.Go("recycled", body)
	e.Go("recycled", body)
	if n := pooled(e); n != 2 || e.Live() != 4 {
		t.Fatalf("pooled=%d live=%d, want 2 and 4", n, e.Live())
	}
	within(t, "Shutdown", e.Shutdown)
	if e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("after Shutdown: live=%d pooled=%d, want 0 and 0", e.Live(), pooled(e))
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestShutdownKillsBodiesThatRecover: a body that recovers the unwinding of
// its kill and returns ends its coroutine without touching the live list
// again, so the procs Shutdown kills after it die too.
func TestShutdownKillsBodiesThatRecover(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 3; i++ {
		e.GoID("stubborn", int64(i), func(p *Proc) {
			defer func() { recover() }()
			p.Park()
		})
	}
	e.Run(Forever)
	within(t, "Shutdown", e.Shutdown)
	if e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("after Shutdown: live=%d pooled=%d, want 0 and 0", e.Live(), pooled(e))
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestPanicInRecycledProc: a recycled proc that panics is reported under the
// name of its new body, and the failed run leaves no goroutine behind.
func TestPanicInRecycledProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("keeper", func(p *Proc) { p.Park() })
	first := e.Go("first", func(p *Proc) {})
	e.Run(Forever)
	second := e.GoID("second", 2, func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if second != first {
		t.Fatal("the Go after an exit made a new proc; want the pooled one")
	}
	pp := func() (pp *ProcPanic) {
		defer func() { pp, _ = recover().(*ProcPanic) }()
		e.Run(Forever)
		return nil
	}()
	if pp == nil || pp.Proc != "second2" || pp.Value != "boom" || pp.T != 1 {
		t.Fatalf("ProcPanic = %v, want second2 panicking with boom at t=1", pp)
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestRunDrainsPool: a Run that ends with no live proc leaves no goroutine
// behind, without Shutdown; one cut at a horizon with procs still live keeps
// the pool for them.
func TestRunDrainsPool(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.GoID("w", int64(i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				e.Go("child", func(c *Proc) { c.Sleep(1) })
				p.Sleep(2)
			}
		})
	}
	e.Run(1) // the first children have exited, their spawners sleep on
	if e.Live() == 0 || pooled(e) == 0 {
		t.Fatalf("at the horizon: live=%d pooled=%d, want both nonzero", e.Live(), pooled(e))
	}
	e.Run(Forever)
	if e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("after the run: live=%d pooled=%d, want 0 and 0", e.Live(), pooled(e))
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestSpawnExitAllocFree is the allocation gate of a task's host lifecycle:
// once the pool and the queue are warm, a spawn, the new proc's start, sleep
// and exit allocate nothing.
func TestSpawnExitAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	child := func(c *Proc) { c.Sleep(1) }
	e.GoID("spawner", 0, func(p *Proc) {
		for {
			e.GoID("child", 0, child)
			p.Sleep(2)
		}
	})
	e.Run(100)
	if m := allocs.Count(50, func() { e.Run(e.Now() + 100) }); m != 0 {
		t.Errorf("50 windows of spawn/exit cycles allocated %d times, want 0", m)
	}
}

// AwaitThen and Exit: a body returns into its proc's wait; the wait's
// continuations either end the proc (Exit), which pools it at once, or leave
// the rest of the body to the coroutine.

// exitAfter returns a body that sleeps d in continuation form, returns into
// that wait, and ends the proc from the wake-up's continuation, failing t if
// the rest of the body ever runs.
func exitAfter(t *testing.T, d Time) func(p *Proc) {
	return func(p *Proc) {
		p.SleepThen(d, p.Exit)
		p.AwaitThen(func(*Proc) { t.Error("an exited proc ran the rest of its body") })
	}
}

// TestAwaitThenRunsTheRest: a continuation that leaves the proc running hands
// the rest of the body to the coroutine, which may return into a wait again;
// a proc already running runs the rest at once. The waits are the same events
// as Await's, and the body ends when the last rest returns.
func TestAwaitThenRunsTheRest(t *testing.T) {
	e := NewEngine()
	var steps []Time
	step := func(p *Proc) { steps = append(steps, p.Now()) }
	e.Go("tail", func(p *Proc) {
		p.SleepThen(2, func() { step(p) })
		p.AwaitThen(func(p *Proc) {
			step(p)
			p.SleepThen(3, nil)
			p.AwaitThen(func(p *Proc) {
				step(p)
				p.AwaitThen(step) // running: at once
			})
		})
	})
	within(t, "Run", func() { e.Run(Forever) })
	if want := []Time{2, 2, 5, 5}; !slices.Equal(steps, want) {
		t.Errorf("steps at %v, want %v", steps, want)
	}
	if e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("live=%d pooled=%d after Run, want 0 and 0", e.Live(), pooled(e))
	}
	// The start is switched to from Run; both wake-ups find the dispatcher
	// itself, the first after running its continuation.
	if st := e.Stats(); st.Events != 3 || st.Handoffs != 3 || e.InPlace() != 2 || e.Inline() != 0 {
		t.Errorf("Events=%d Handoffs=%d InPlace=%d Inline=%d, want 3, 3, 2 and 0",
			st.Events, st.Handoffs, e.InPlace(), e.Inline())
	}
}

// TestExitRespawnsInPlace: the continuation that ends the proc runs on the
// proc's own coroutine, which goes on dispatching; a callback of that
// dispatch spawns, gets the same proc back, and its start is the next event,
// so the coroutine runs the new body itself.
func TestExitRespawnsInPlace(t *testing.T) {
	e := NewEngine()
	ran := false
	var second *Proc
	respawn := func() {
		if e.Live() != 0 || pooled(e) != 1 {
			t.Errorf("after Exit: live=%d pooled=%d, want 0 and 1", e.Live(), pooled(e))
		}
		second = e.Go("second", func(q *Proc) {
			q.Sleep(1)
			ran = true
		})
	}
	first := e.Go("first", func(p *Proc) {
		p.SleepThen(3, p.Exit)
		e.After(3, respawn) // due right after the wake-up that exits
		p.AwaitThen(func(*Proc) { t.Error("an exited proc ran the rest of its body") })
	})
	within(t, "Run", func() { e.Run(Forever) })
	if second != first || !ran || e.Now() != 4 {
		t.Errorf("same proc %v, ran %v, now %v; want true, true, 4", second == first, ran, e.Now())
	}
	// first's start is switched to from Run; the wake-up that exits is
	// inline; second's start and wake-up find the dispatcher itself.
	if st := e.Stats(); st.Handoffs != 4 || e.Inline() != 1 || e.InPlace() != 2 {
		t.Errorf("Handoffs=%d Inline=%d InPlace=%d, want 4, 1 and 2", st.Handoffs, e.Inline(), e.InPlace())
	}
}

// TestExitRespawnSwitched: the exiting continuation runs on another proc's
// coroutine, and so does the Go that reuses the exited proc: its start is a
// switch into the exited proc's coroutine, which runs the new body.
func TestExitRespawnSwitched(t *testing.T) {
	e := NewEngine()
	ran := 0
	first := e.Go("first", exitAfter(t, 1))
	var reused *Proc
	e.Go("spawner", func(p *Proc) {
		p.Sleep(2) // dispatches first's exit at t=1
		if e.Live() != 1 || pooled(e) != 1 {
			t.Errorf("after Exit: live=%d pooled=%d, want 1 and 1", e.Live(), pooled(e))
		}
		reused = e.Go("second", func(q *Proc) { ran++ })
		p.Sleep(1)
		e.Go("third", func(q *Proc) { ran++ }) // a plain return's pooled coroutine
	})
	within(t, "Run", func() { e.Run(Forever) })
	if reused != first || ran != 2 || e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("reused %v, ran %d, live %d, pooled %d; want true, 2, 0, 0",
			reused == first, ran, e.Live(), pooled(e))
	}
	// first starts from Run and spawner from first's dispatch; first's exit
	// is inline and spawner's first wake-up in place; second's start is a
	// switch into first's coroutine, spawner's second wake-up a switch back,
	// and third's start a switch into the coroutine second returned on.
	if st := e.Stats(); st.Handoffs != 7 || e.Inline() != 1 || e.InPlace() != 1 {
		t.Errorf("Handoffs=%d Inline=%d InPlace=%d, want 7, 1 and 1", st.Handoffs, e.Inline(), e.InPlace())
	}
}

// TestExitedProcDrainsAndShutsDown: an exited proc's coroutine stops when the
// pool is drained — by a Run that ends with nothing live, and by Shutdown,
// which also kills an exited proc that was respawned and has not started
// yet, and a proc whose body returned into a wait nobody ends — and no
// goroutine is left behind.
func TestExitedProcDrainsAndShutsDown(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 3; i++ {
		e.GoID("exiter", int64(i), exitAfter(t, Time(1+i)))
	}
	within(t, "Run", func() { e.Run(Forever) })
	if e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("drained by Run: live %d, pooled %d; want 0, 0", e.Live(), pooled(e))
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked after Run: %d > %d baseline", n, base)
	}

	e = NewEngine()
	e.Go("keeper", func(p *Proc) { // live, so Run keeps the pool
		p.ParkThen(nil)
		p.AwaitThen(func(*Proc) { t.Error("a killed proc ran the rest of its body") })
	})
	for i := 0; i < 3; i++ {
		e.GoID("exiter", int64(i), exitAfter(t, 1))
	}
	e.Run(Forever)
	e.GoAfter(Second, "respawned", func(p *Proc) { t.Error("a killed proc ran") })
	if pooled(e) != 2 || e.Live() != 2 {
		t.Fatalf("pooled=%d live=%d, want 2 and 2", pooled(e), e.Live())
	}
	within(t, "Shutdown", e.Shutdown)
	if e.Live() != 0 || pooled(e) != 0 {
		t.Errorf("after Shutdown: live %d, pooled %d; want 0, 0", e.Live(), pooled(e))
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked after Shutdown: %d > %d baseline", n, base)
	}
}

// TestExitOutsideAContinuationFails: only a continuation of a body that
// returned into its wait may Exit — not the body itself, nor a continuation
// that runs synchronously on its coroutine (a chain completed before
// WaitThen), nor one whose body waits in Await, with frames to return to.
// A body may not return suspended without AwaitThen either.
func TestExitOutsideAContinuationFails(t *testing.T) {
	for name, body := range map[string]func(p *Proc){
		"body": func(p *Proc) { p.Exit() },
		"synchronous continuation": func(p *Proc) {
			c := p.Engine().NewChain(p)
			c.Complete()
			c.WaitThen(p.Exit)
			p.Await()
		},
		"continuation of Await": func(p *Proc) {
			p.SleepThen(1, p.Exit)
			p.Await()
		},
		"return without AwaitThen": func(p *Proc) { p.SleepThen(1, nil) },
	} {
		e := NewEngine()
		e.Go("exiter", body)
		func() {
			defer func() {
				pp, ok := recover().(*ProcPanic)
				if !ok || pp.Proc != "exiter" {
					t.Errorf("%s: recovered %v, want a *ProcPanic of proc exiter", name, pp)
				}
			}()
			e.Run(Forever)
			t.Errorf("%s: Run returned normally", name)
		}()
	}
}

// TestSpawnExitFromContinuationAllocFree is the allocation gate of a body
// that ends in a continuation: once warm, a spawn, the new proc's start (on
// the coroutine of the last one), its continuation-form sleep, its return
// into that wait and its Exit allocate nothing.
func TestSpawnExitFromContinuationAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	var cur *Proc // one child lives at a time
	exit := func() { cur.Exit() }
	rest := func(*Proc) { t.Error("an exited proc ran the rest of its body") }
	child := func(c *Proc) {
		cur = c
		c.SleepThen(1, exit)
		c.AwaitThen(rest)
	}
	e.GoID("spawner", 0, func(p *Proc) {
		for {
			e.GoID("child", 0, child)
			p.Sleep(2)
		}
	})
	e.Run(100)
	inline := e.Inline()
	if m := allocs.Count(50, func() { e.Run(e.Now() + 100) }); m != 0 {
		t.Errorf("50 windows of spawn/exit-from-continuation cycles allocated %d times, want 0", m)
	}
	if e.Inline() == inline {
		t.Error("no child exited from its continuation in the measured windows")
	}
}
