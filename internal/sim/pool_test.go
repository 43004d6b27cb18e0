package sim

import (
	"runtime"
	"testing"
	"time"
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
	if m := mallocs(50, func() { e.Run(e.Now() + 100) }); m != 0 {
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
	if m := mallocs(50, func() { e.Run(e.Now() + 100) }); m != 0 {
		t.Errorf("50 windows of spawn/exit cycles allocated %d times, want 0", m)
	}
}
