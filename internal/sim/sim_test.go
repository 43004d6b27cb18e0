package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"contsteal/internal/allocs"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2500ns"},
		{25 * Microsecond, "25.00us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2000.00ms"},
		{30 * Second, "30.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v, want 2.5", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var done bool
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		if p.Now() != 10*Microsecond {
			t.Errorf("after sleep Now() = %v, want 10us", p.Now())
		}
		p.Sleep(5 * Microsecond)
		done = true
	})
	end := e.Run(Forever)
	if !done {
		t.Fatal("proc did not complete")
	}
	if end != 15*Microsecond {
		t.Errorf("Run returned %v, want 15us", end)
	}
}

func TestEventOrderingByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() { order = append(order, "b") })
	e.At(5, func() { order = append(order, "a") })
	e.At(10, func() { order = append(order, "c") }) // same time as b, scheduled later
	e.Run(Forever)
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("event order = %q, want %q", got, want)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var got Time
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(100)
		e.Wake(waiter)
	})
	e.Run(Forever)
	if got != 100 {
		t.Errorf("waiter resumed at %v, want 100", got)
	}
}

func TestWakeAfter(t *testing.T) {
	e := NewEngine()
	var got Time
	waiter := e.Go("waiter", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.After(50, func() { e.WakeAfter(waiter, 25) })
	e.Run(Forever)
	if got != 75 {
		t.Errorf("waiter resumed at %v, want 75", got)
	}
}

func TestWakeNonParkedPanics(t *testing.T) {
	e := NewEngine()
	p := e.Go("sleeper", func(p *Proc) { p.Sleep(1000) })
	e.Run(10) // p is scheduled, not parked
	defer func() {
		if recover() == nil {
			t.Error("Wake of non-parked proc did not panic")
		}
		e.Shutdown()
	}()
	e.Wake(p)
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(20, func() { fired = append(fired, 20) })
	e.At(30, func() { fired = append(fired, 30) })
	end := e.Run(20)
	if end != 20 {
		t.Errorf("Run(20) = %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Errorf("fired %d events before horizon, want 2", len(fired))
	}
	end = e.Run(Forever)
	if end != 30 || len(fired) != 3 {
		t.Errorf("resumed run: end=%v fired=%d, want 30, 3", end, len(fired))
	}
}

func TestRunHorizonHitByProc(t *testing.T) {
	// With several procs in flight the goroutine that meets the horizon is a
	// suspending proc, not Run's caller: every windowed Run must still return
	// its horizon exactly, and the windows together must replay the unwindowed
	// run — same order, same timestamps, same counters.
	run := func(horizons ...Time) ([]string, EngineStats) {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.GoID("w", int64(i), func(p *Proc) {
				for j := 0; j < 25; j++ {
					p.Sleep(Time(3 + 2*i))
					log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		e.At(41, func() { log = append(log, "cb@41") })
		for _, h := range horizons {
			if end := e.Run(h); end != h {
				t.Errorf("Run(%v) = %v, want the horizon exactly", h, end)
			}
			if e.Now() != h {
				t.Errorf("Now() = %v after Run(%v)", e.Now(), h)
			}
		}
		if end := e.Run(Forever); end != 225 || e.Live() != 0 {
			t.Errorf("final Run = %v with %d live, want 225 and 0", end, e.Live())
		}
		return log, e.Stats()
	}
	wantLog, wantStats := run()
	gotLog, gotStats := run(10, 40, 41, 42, 100)
	if !slices.Equal(gotLog, wantLog) {
		t.Errorf("windowed run diverges from the unwindowed one:\n got %v\nwant %v", gotLog, wantLog)
	}
	if gotStats != wantStats {
		t.Errorf("windowed stats %+v, want %+v", gotStats, wantStats)
	}
}

func TestRunHorizonAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	if end := e.Run(40); end != 40 {
		t.Errorf("Run(40) = %v, want 40", end)
	}
	if e.Now() != 40 {
		t.Errorf("Now() = %v, want 40", e.Now())
	}
	e.Run(Forever)
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run(Forever)
	if count != 1 {
		t.Errorf("processed %d events after Stop, want 1", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestStopWhileProcHoldsBaton(t *testing.T) {
	// Stop must end the run at the current event whoever is dispatching: a
	// proc calling it directly, or a callback a suspending proc dispatched.
	for _, from := range []string{"proc", "callback"} {
		base := runtime.NumGoroutine()
		e := NewEngine()
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			e.GoID("w", int64(i), func(p *Proc) {
				for {
					p.Sleep(10)
					log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
					if from == "proc" && i == 1 && p.Now() == 30 {
						e.Stop()
					}
				}
			})
		}
		if from == "callback" {
			// Due while all three procs sleep towards t=30, so w2 — the last to
			// suspend at t=20 — is the goroutine that runs it.
			e.At(25, func() { log = append(log, "stop@25"); e.Stop() })
		}
		end := e.Run(Forever)
		want := map[string]struct {
			end  Time
			last string
		}{"proc": {30, "1@30"}, "callback": {25, "stop@25"}}[from]
		if end != want.end || len(log) == 0 || log[len(log)-1] != want.last {
			t.Errorf("Stop from %s: Run = %v, log %v; want end %v right after %q", from, end, log, want.end, want.last)
		}
		if e.Live() != 3 {
			t.Errorf("Stop from %s: Live = %d, want the 3 suspended procs", from, e.Live())
		}
		e.Shutdown()
		if n := countGoroutines(base); n > base {
			t.Errorf("Stop from %s: goroutines leaked: %d > %d", from, n, base)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) { p.Park() })
	e.Run(Forever)
	if !e.Deadlocked() {
		t.Error("Deadlocked() = false for parked proc with empty queue")
	}
	if e.Parked() != 1 || e.Live() != 1 {
		t.Errorf("Parked=%d Live=%d, want 1, 1", e.Parked(), e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("Live after Shutdown = %d, want 0", e.Live())
	}
}

func TestShutdownKillsScheduledProcs(t *testing.T) {
	e := NewEngine()
	reached := false
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(Second)
		reached = true
	})
	e.Run(100) // sleeper still scheduled
	e.Shutdown()
	if reached {
		t.Error("killed proc ran past its sleep")
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
}

func TestShutdownKillsNewProcs(t *testing.T) {
	// A proc whose coroutine was never entered is unlinked and its goroutine
	// ends all the same.
	base := runtime.NumGoroutine()
	e := NewEngine()
	ran := false
	e.Go("never", func(p *Proc) { ran = true })
	e.Shutdown()
	if ran {
		t.Error("proc body ran despite Shutdown before Run")
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

func TestGoAfter(t *testing.T) {
	e := NewEngine()
	var start Time = -1
	e.GoAfter(42, "late", func(p *Proc) { start = p.Now() })
	e.Run(Forever)
	if start != 42 {
		t.Errorf("proc started at %v, want 42", start)
	}
}

func TestProcSpawnsProc(t *testing.T) {
	e := NewEngine()
	var childStart Time = -1
	e.Go("parent", func(p *Proc) {
		p.Sleep(10)
		e.Go("child", func(c *Proc) { childStart = c.Now() })
		p.Sleep(10)
	})
	e.Run(Forever)
	if childStart != 10 {
		t.Errorf("child started at %v, want 10", childStart)
	}
}

func TestHandoffChain(t *testing.T) {
	// A ring of procs passing control via Park/Wake must execute in strict
	// round-robin order with no virtual time passing.
	e := NewEngine()
	const n = 5
	procs := make([]*Proc, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Park()
				order = append(order, i)
				if !(i == n-1 && round == 2) {
					e.Wake(procs[(i+1)%n])
				}
			}
		})
	}
	// At t=1 all procs have started and parked; kick off the ring.
	e.After(1, func() { e.Wake(procs[0]) })
	e.Run(Forever)
	counts := make([]int, n)
	for idx, v := range order {
		counts[v]++
		if idx > 0 && order[idx-1] == v {
			t.Fatalf("proc %d ran twice in a row at position %d", v, idx)
		}
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("proc %d ran %d times, want 3", i, c)
		}
	}
	if e.Live() != 0 {
		e.Shutdown()
		t.Fatalf("procs leaked: %d live", e.Live())
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				// Re-park forever so the wrapper doesn't double-yield; in a
				// real panic the test would fail anyway. Simply return.
			}
		}()
		p.Sleep(-1)
	})
	e.Run(Forever)
	if !panicked {
		t.Error("negative sleep did not panic")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run(Forever)
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestDeterminism(t *testing.T) {
	// Two identical randomized simulations must produce identical traces.
	run := func(seed int64) []string {
		var trace []string
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			i := i
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Time(rng.Intn(1000)))
					trace = append(trace, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		e.Run(Forever)
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestManyProcsScale(t *testing.T) {
	// Smoke test: thousands of procs sleep-looping must complete and the
	// engine must end exactly at the max finish time.
	e := NewEngine()
	const n = 4096
	for i := 0; i < n; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			for j := 0; j <= i%7; j++ {
				p.Sleep(Time(i % 13))
			}
		})
	}
	e.Run(Forever)
	if e.Live() != 0 {
		t.Fatalf("%d procs leaked", e.Live())
	}
}

func TestTraceHook(t *testing.T) {
	e := NewEngine()
	var lines []string
	e.SetTrace(func(s string) { lines = append(lines, s) })
	e.Go("a", func(p *Proc) { p.Sleep(5) })
	e.At(3, func() {})
	e.Run(Forever)
	if len(lines) < 3 {
		t.Errorf("trace produced %d lines, want >= 3", len(lines))
	}
	e.SetTrace(nil)
}

func TestProcPanicPropagatesToRunCaller(t *testing.T) {
	// A panic inside a proc body must surface from Engine.Run as a
	// *ProcPanic on the caller's goroutine (so embedders can recover it per
	// run), and every other proc must be torn down — no leaked goroutines.
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Park() })
	e.GoAfter(50, "bad", func(p *Proc) {
		p.Sleep(25)
		panic("boom")
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "bad" || pp.T != 75 || pp.Value != "boom" {
			t.Errorf("ProcPanic = %q t=%v value=%v, want bad/75/boom", pp.Proc, pp.T, pp.Value)
		}
		if len(pp.Stack) == 0 {
			t.Error("ProcPanic carries no stack")
		}
		if e.Live() != 0 {
			t.Errorf("%d procs alive after failed run; engine did not shut down", e.Live())
		}
	}()
	e.Run(Forever)
	t.Fatal("Run returned normally despite proc panic")
}

func TestChainTimingMatchesSleeps(t *testing.T) {
	// A chain of links must perform each access at the same virtual instant
	// as the equivalent Sleep sequence, and resume the proc exactly at the
	// final link's time.
	e := NewEngine()
	var accesses []Time
	var resumed Time
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(10, func() {
			accesses = append(accesses, p.Now())
			c.Then(20, func() {
				accesses = append(accesses, p.Now())
				c.Complete()
			})
		})
		c.Wait()
		resumed = p.Now()
	})
	e.Run(Forever)
	if len(accesses) != 2 || accesses[0] != 10 || accesses[1] != 30 {
		t.Errorf("link accesses at %v, want [10 30]", accesses)
	}
	if resumed != 30 {
		t.Errorf("proc resumed at %v, want 30 (the final link's instant)", resumed)
	}
	st := e.Stats()
	if st.Callbacks != 2 {
		t.Errorf("Callbacks = %d, want 2 (one per link)", st.Callbacks)
	}
	if st.Handoffs != 2 {
		t.Errorf("Handoffs = %d, want 2 (proc start + single resume)", st.Handoffs)
	}
}

func TestChainSynchronousCompleteDoesNotPark(t *testing.T) {
	// A protocol whose steps all turn out to be immediate completes the
	// chain before Wait; the proc must not suspend and no event is consumed.
	e := NewEngine()
	var at Time = -1
	e.Go("local", func(p *Proc) {
		c := e.NewChain(p)
		c.Complete()
		c.Wait()
		at = p.Now()
	})
	e.Run(Forever)
	if at != 0 {
		t.Errorf("proc continued at %v, want 0 (no suspension)", at)
	}
}

func TestChainPooling(t *testing.T) {
	// Wait must release the chain for reuse: two sequential protocols on one
	// proc share a single Chain allocation.
	e := NewEngine()
	var c1, c2 *Chain
	e.Go("issuer", func(p *Proc) {
		c1 = e.NewChain(p)
		c1.Then(5, c1.Complete)
		c1.Wait()
		c2 = e.NewChain(p)
		c2.Then(5, c2.Complete)
		c2.Wait()
	})
	e.Run(Forever)
	if c1 != c2 {
		t.Error("second NewChain did not reuse the pooled chain released by Wait")
	}
}

func TestShutdownWithPendingChain(t *testing.T) {
	// Shutdown while a proc is parked mid-chain must unwind it cleanly: the
	// goroutine exits, the live count drops to zero, nothing panics.
	e := NewEngine()
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(Second, c.Complete) // far in the future
		c.Wait()
		t.Error("proc resumed past Shutdown")
	})
	e.Run(100) // proc is now parked in Wait; the link is beyond the horizon
	if e.Parked() != 1 {
		t.Fatalf("Parked = %d, want 1 (issuer waiting on its chain)", e.Parked())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("Live = %d after Shutdown, want 0", e.Live())
	}
}

func TestProcPanicFromCompletionCallback(t *testing.T) {
	// A panic inside a chain link (here on the waiting proc's own goroutine,
	// which dispatches its links) must be re-raised by Run as a *ProcPanic
	// attributed to "callback", with the waiting proc torn down.
	e := NewEngine()
	e.Go("issuer", func(p *Proc) {
		c := e.NewChain(p)
		c.Then(10, func() { panic("link boom") })
		c.Wait()
	})
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "callback" || pp.T != 10 || pp.Value != "link boom" {
			t.Errorf("ProcPanic = %q t=%v value=%v, want callback/10/link boom",
				pp.Proc, pp.T, pp.Value)
		}
		if e.Live() != 0 {
			t.Errorf("%d procs alive after failed run", e.Live())
		}
	}()
	e.Run(Forever)
	t.Fatal("Run returned normally despite callback panic")
}

func TestRunHorizonMidChain(t *testing.T) {
	// A horizon that falls between two links must stop the engine with the
	// procs still parked; resuming the run completes the chains normally.
	// Three issuers, so the links run on (and the horizon is met by) a proc
	// parked in Wait rather than Run's caller.
	e := NewEngine()
	resumed := []Time{-1, -1, -1}
	for i := range resumed {
		i := i
		e.GoID("issuer", int64(i), func(p *Proc) {
			c := e.NewChain(p)
			c.Then(Time(10+i), func() {
				c.Then(90, c.Complete)
			})
			c.Wait()
			resumed[i] = p.Now()
		})
	}
	if end := e.Run(50); end != 50 {
		t.Errorf("Run(50) = %v, want 50", end)
	}
	if !slices.Equal(resumed, []Time{-1, -1, -1}) {
		t.Errorf("procs resumed before their final links fired: %v", resumed)
	}
	if e.Parked() != 3 {
		t.Errorf("Parked = %d at horizon, want 3", e.Parked())
	}
	e.Run(Forever)
	if !slices.Equal(resumed, []Time{100, 101, 102}) {
		t.Errorf("procs resumed at %v, want [100 101 102]", resumed)
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
}

func TestEngineStatsDeterministic(t *testing.T) {
	// Host-side counters must be a pure function of the simulated program.
	run := func() EngineStats {
		e := NewEngine()
		for i := 0; i < 8; i++ {
			e.Go("w", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Time(j))
				}
				c := e.NewChain(p)
				c.Then(5, c.Complete)
				c.Wait()
			})
		}
		e.Run(Forever)
		return e.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stats diverge across identical runs: %+v vs %+v", a, b)
	}
}

//go:noinline
func panickingTimer() { panic("timer boom") }

func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	// The timer comes due while "sleeper" holds the baton (it is suspended in
	// Sleep and dispatching), so the callback panics on a proc's goroutine.
	// It must still surface from Run as the pseudo-proc "callback" with the
	// callback's own frames, and every goroutine must be gone afterwards.
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Park() })
	e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	e.At(50, panickingTimer)
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok {
			t.Fatalf("Run did not panic with a *ProcPanic")
		}
		if pp.Proc != "callback" || pp.T != 50 || pp.Value != "timer boom" {
			t.Errorf("ProcPanic = %q t=%v value=%v, want callback/50/timer boom", pp.Proc, pp.T, pp.Value)
		}
		if stack := string(pp.Stack); !strings.Contains(stack, "panickingTimer") || !strings.Contains(stack, "(*Proc).Sleep") {
			t.Errorf("stack lacks the callback's frames under the dispatching proc's Sleep:\n%s", stack)
		}
		if e.Live() != 0 {
			t.Errorf("%d procs alive after failed run", e.Live())
		}
		if n := countGoroutines(base); n > base {
			t.Errorf("goroutines leaked: %d > %d baseline", n, base)
		}
	}()
	e.Run(Forever)
	t.Fatal("Run returned normally despite callback panic")
}

func TestExitHandsBatonOn(t *testing.T) {
	// A proc that returns still holds the baton and must pass it on: waves of
	// short-lived procs, spawned by procs, exiting while others are scheduled.
	base := runtime.NumGoroutine()
	e := NewEngine()
	finished := 0
	for i := 0; i < 16; i++ {
		i := i
		e.GoID("parent", int64(i), func(p *Proc) {
			for j := 0; j < 64; j++ {
				e.Go("child", func(c *Proc) {
					if (i+j)%3 != 0 { // a third exit without ever suspending
						c.Sleep(Time((i + j) % 5))
					}
					finished++
				})
				p.Sleep(Time(1 + i%4))
			}
		})
	}
	e.Run(Forever)
	if finished != 16*64 || e.Live() != 0 || e.Pending() != 0 {
		t.Errorf("finished=%d live=%d pending=%d, want %d, 0, 0", finished, e.Live(), e.Pending(), 16*64)
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// batonProgram runs a seeded 64-proc mix of every suspension primitive —
// Sleep, Park woken by a peer or by a timer, chains of one to three links,
// short-lived children — and returns its event log and counters.
func batonProgram(seed int64) (log []string, st EngineStats, inplace uint64) {
	e := NewEngine()
	var parked []*Proc // FIFO of procs that announced a Park
	for i := 0; i < 64; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed + int64(i)))
		e.GoID("w", int64(i), func(p *Proc) {
			for step := 0; step < 40; step++ {
				switch rng.Intn(5) {
				case 0:
					p.Sleep(Time(rng.Intn(50)))
				case 1: // the timer guarantees a wake-up; a peer may get there first
					e.After(Time(1+rng.Intn(30)), func() {
						if p.State() == StateParked {
							e.Wake(p)
						}
					})
					parked = append(parked, p)
					p.Park()
				case 2:
					for len(parked) > 0 {
						q := parked[0]
						parked = parked[1:]
						if q.State() == StateParked {
							e.WakeAfter(q, Time(rng.Intn(5)))
							break
						}
					}
				case 3:
					c := e.NewChain(p)
					links := 1 + rng.Intn(3)
					var step func()
					step = func() {
						log = append(log, fmt.Sprintf("link%d@%d", i, e.Now()))
						if links--; links == 0 {
							c.Complete()
						} else {
							c.Then(Time(rng.Intn(9)), step)
						}
					}
					c.Then(Time(rng.Intn(9)), step)
					c.Wait()
				case 4:
					d := Time(rng.Intn(7))
					e.Go("child", func(c *Proc) {
						c.Sleep(d)
						log = append(log, fmt.Sprintf("child%d@%d", i, c.Now()))
					})
				}
				log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
			}
		})
	}
	e.Run(Forever)
	if e.Live() != 0 {
		e.Shutdown()
		panic("batonProgram: procs left behind")
	}
	return log, e.Stats(), e.InPlace()
}

func TestBatonIndependentOfGOMAXPROCS(t *testing.T) {
	// No central driver serializes the procs: the baton passes by coroutine
	// switches through Run's trampoline, which run on whichever thread holds
	// Run's goroutine, so the same program must produce the same log and
	// counters with one P and with four — and stay clean under -race.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wantLog, wantStats, wantInPlace := batonProgram(11)
	if wantInPlace == 0 || wantInPlace == wantStats.Handoffs {
		t.Errorf("program resumes %d of %d in place; want a mix of both paths", wantInPlace, wantStats.Handoffs)
	}
	runtime.GOMAXPROCS(4)
	for round := 0; round < 3; round++ {
		log, st, inplace := batonProgram(11)
		if !slices.Equal(log, wantLog) || st != wantStats || inplace != wantInPlace {
			t.Fatalf("GOMAXPROCS=4 round %d diverges from GOMAXPROCS=1: %d vs %d log lines, stats %+v vs %+v, inplace %d vs %d",
				round, len(log), len(wantLog), st, wantStats, inplace, wantInPlace)
		}
	}
}

func TestInPlace(t *testing.T) {
	// A lone sleeper always finds its own wake-up next: every resumption but
	// the start (which Run's goroutine switches to) is served in place.
	e := NewEngine()
	e.Go("solo", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(7)
		}
	})
	e.Run(Forever)
	if st := e.Stats(); st.Handoffs != 101 || e.InPlace() != st.Handoffs-1 {
		t.Errorf("Handoffs=%d InPlace=%d, want 101 and 100", st.Handoffs, e.InPlace())
	}
	// Two procs in lock step always find the other one next: no resumption
	// is in place.
	e = NewEngine()
	for i := 0; i < 2; i++ {
		e.Go("pair", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(7)
			}
		})
	}
	e.Run(Forever)
	if st := e.Stats(); st.Handoffs != 202 || e.InPlace() != 0 {
		t.Errorf("lock-step pair: Handoffs=%d InPlace=%d, want 202 and 0", st.Handoffs, e.InPlace())
	}
}

func BenchmarkProcPingPong(b *testing.B) {
	// Two procs alternating Sleep(1): each event is one direct proc-to-proc
	// switch, the common case of a busy simulation.
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	e.Run(Forever)
}

func BenchmarkSleepInPlace(b *testing.B) {
	// One proc sleeping among parked ones: its own wake-up is always next, so
	// an event is a heap push and pop on the proc's own goroutine — no switch.
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Go("idle", func(p *Proc) { p.Park() })
	}
	e.Go("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run(Forever)
	b.StopTimer()
	e.Shutdown()
}

func BenchmarkSleepInline(b *testing.B) {
	// Two procs alternating SleepThen(1): the events of BenchmarkProcPingPong,
	// but each wake-up is a continuation run by whoever is dispatching — a heap
	// push and pop and a function call, no switch although the proc changes.
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) {
			left := b.N / 2
			var nap func()
			nap = func() {
				if left > 0 {
					left--
					p.SleepThen(1, nap)
				}
			}
			nap()
			p.Await()
		})
	}
	b.ResetTimer()
	e.Run(Forever)
}

func TestProcPanicRecoveredInBodyIsNotFatal(t *testing.T) {
	// A body that recovers its own panic keeps the simulation alive.
	e := NewEngine()
	ran := false
	e.Go("selfheal", func(p *Proc) {
		defer func() { recover() }()
		panic("contained")
	})
	e.GoAfter(10, "after", func(p *Proc) { ran = true })
	e.Run(Forever)
	if !ran {
		t.Error("simulation did not continue after a recovered proc panic")
	}
}

// TestEventPathAllocFree is the allocation gate of the event path: once the
// queue has grown, a proc sleeping and scheduling callbacks must not
// allocate — scheduling, the queue and the in-place wake-up included.
func TestEventPathAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	cb := func() {}
	e.GoID("w", 0, func(p *Proc) {
		for {
			p.Sleep(1)
			e.After(1, cb)
			e.After(2, cb)
		}
	})
	e.Run(100) // start the proc and grow the queue
	if m := allocs.Count(50, func() { e.Run(e.Now() + 100) }); m != 0 {
		t.Errorf("50 windows of the event path allocated %d times, want 0", m)
	}
}

// atEachScenario schedules a batch of timers at ts — by one AtEach, or by one
// At per timer — between callbacks and a sleeping proc scheduled at equal
// times before and after it; every batch timer schedules one more callback
// at its own instant. It runs the engine to until, then to the end, and
// returns the SetTrace lines, the order the callbacks ran in, and the
// engine.
func atEachScenario(ts []Time, batch bool, until Time) ([]string, []string, *Engine) {
	e := NewEngine()
	var lines, ran []string
	e.SetTrace(func(s string) { lines = append(lines, s) })
	note := func(what string) func() {
		return func() { ran = append(ran, fmt.Sprintf("%s@%d", what, e.Now())) }
	}
	e.At(0, note("before0"))
	e.At(10, note("before10"))
	e.Go("sleeper", func(p *Proc) {
		for range 4 {
			p.Sleep(10)
			ran = append(ran, fmt.Sprintf("sleeper@%d", p.Now()))
		}
	})
	fire := func(i int) {
		note(fmt.Sprintf("t%d", i))()
		e.At(e.Now(), note(fmt.Sprintf("t%d-after", i)))
	}
	if batch {
		e.AtEach(ts, fire)
	} else {
		for i := range ts {
			e.At(ts[i], func() { fire(i) })
		}
	}
	e.At(10, note("after10"))
	e.At(30, note("after30"))
	e.Run(until)
	e.Run(Forever)
	return lines, ran, e
}

// TestAtEachIsAtCalls: AtEach dispatches the same events, in the same
// (time, seq) order and with the same counts, as one At call per timer —
// with other events at equal times on both sides of the batch, and with a
// horizon cutting the run inside the batch.
func TestAtEachIsAtCalls(t *testing.T) {
	ts := []Time{0, 10, 10, 20, 30, 30, 45}
	for _, until := range []Time{Forever, 10, 30} {
		wantLines, wantRan, want := atEachScenario(ts, false, until)
		gotLines, gotRan, got := atEachScenario(ts, true, until)
		if !slices.Equal(gotLines, wantLines) {
			t.Errorf("until %d: dispatch lines differ:\nAtEach %q\nAt     %q", until, gotLines, wantLines)
		}
		if !slices.Equal(gotRan, wantRan) {
			t.Errorf("until %d: callback order differs:\nAtEach %q\nAt     %q", until, gotRan, wantRan)
		}
		if got.Stats() != want.Stats() {
			t.Errorf("until %d: stats %+v, want %+v", until, got.Stats(), want.Stats())
		}
		if n := len(wantRan); n != 2+4+2+2*len(ts) {
			t.Errorf("until %d: %d callbacks ran, want every one", until, n)
		}
	}
}

// TestAtEachQueuesOneTimer: a batch holds one heap entry, its next timer.
func TestAtEachQueuesOneTimer(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.AtEach([]Time{5, 6, 7, 8}, func(int) { fired++ })
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after AtEach of 4 timers, want 1", e.Pending())
	}
	e.Run(6)
	if e.Pending() != 1 || fired != 2 {
		t.Errorf("at 6: Pending = %d, fired = %d, want 1 and 2", e.Pending(), fired)
	}
	e.Run(Forever)
	if e.Pending() != 0 || fired != 4 {
		t.Errorf("at the end: Pending = %d, fired = %d, want 0 and 4", e.Pending(), fired)
	}
	e.AtEach(nil, func(int) { t.Error("an empty batch fired") })
	e.Run(Forever)
}

// TestAtEachRefusesBadTimes: unsorted times and times in the past panic at
// AtEach, with a message that names the cause.
func TestAtEachRefusesBadTimes(t *testing.T) {
	for _, c := range []struct {
		ts   []Time
		want string
	}{
		{[]Time{110, 120, 115}, "sim: AtEach times are not sorted: ts[2]=115ns before ts[1]=120ns"},
		{[]Time{50, 60}, "sim: AtEach time ts[0]=50ns is in the past (now 100ns)"},
	} {
		e := NewEngine()
		e.At(100, func() {})
		e.Run(Forever)
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("AtEach(%v) panicked with %v, want %q", c.ts, r, c.want)
				}
			}()
			e.AtEach(c.ts, func(int) {})
		}()
		if e.Pending() != 0 {
			t.Errorf("AtEach(%v) queued %d events before refusing", c.ts, e.Pending())
		}
	}
}

// TestAtEachAllocFree: a batch's allocations do not grow with its timers —
// one record and its bound callback — where one At per timer allocates a
// closure each.
func TestAtEachAllocFree(t *testing.T) {
	const runs = 20
	batches := func(n int) uint64 {
		e := NewEngine()
		ts := make([]Time, n)
		fired := 0
		fn := func(int) { fired++ }
		batch := func() {
			for i := range ts {
				ts[i] = e.Now() + Time(i/3)
			}
			e.AtEach(ts, fn)
			e.Run(Forever)
		}
		return allocs.Count(runs, batch) // the warm-up grows the queue
	}
	small, large := batches(16), batches(4096)
	if small != large || large > 2*runs {
		t.Errorf("%d AtEach batches allocate %d times for 16 timers and %d for 4096, want the same, at most %d",
			runs, small, large, 2*runs)
	}
}
