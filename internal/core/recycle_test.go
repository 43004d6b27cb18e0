package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"contsteal/internal/sim"
)

// settledGoroutines waits briefly for exiting goroutines to finish and
// returns the goroutine count once it is back to base, or at the deadline.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: every proc's goroutine — the workers', and the
// threads' the engine pools for reuse — is gone after a completed Run, after
// a Serve cut at its horizon, and after a task that panics.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(pol Policy, what string) {
		t.Helper()
		if n := settledGoroutines(base); n > base {
			t.Errorf("%v: %d goroutines after %s, want the %d before", pol, n, what, base)
		}
	}
	for _, pol := range allPolicies {
		New(testConfig(pol, 4)).Run(fibTask(10))
		check(pol, "Run")

		st := New(testConfig(pol, 3)).Serve(serveTrace(40, 500*sim.Nanosecond, 8), 20*sim.Microsecond)
		if st.InFlight == 0 {
			t.Errorf("%v: the horizon cut nothing", pol)
		}
		check(pol, "a horizon-cut Serve")

		func() {
			defer func() {
				if _, ok := recover().(*sim.ProcPanic); !ok {
					t.Errorf("%v: a panicking task did not fail the run with a *sim.ProcPanic", pol)
				}
			}()
			New(testConfig(pol, 4)).Run(func(c *Ctx) []byte {
				h := c.Spawn(func(c *Ctx) []byte {
					c.Compute(1000)
					panic("task boom")
				})
				fibValue(c, 6)
				return h.Join(c)
			})
		}()
		check(pol, "a panicking task")
	}
}

// TestRecycledThreadsAreZero: a dead Thread goes back to the runtime zeroed
// but for its bound body, so nothing of a task — request tag and request,
// evacuation and join state, the park handshake, its kind — reaches the next
// task that Thread carries, and Threads are in fact reused.
func TestRecycledThreadsAreZero(t *testing.T) {
	for _, pol := range []Policy{ContGreedy, ContStalling, ChildFull} {
		rt := New(testConfig(pol, 4))
		_, st := rt.Run(func(c *Ctx) []byte {
			// Long children, so the root's joins suspend (and its stack is
			// evacuated), over short-lived fib threads to recycle.
			var hs []Handle
			for i := 0; i < 6; i++ {
				d := sim.Time(20+10*i) * sim.Microsecond
				hs = append(hs, c.Spawn(func(c *Ctx) []byte {
					fibValue(c, 7)
					c.Compute(d)
					return nil
				}))
			}
			for _, h := range hs {
				h.Join(c)
			}
			return nil
		})
		if st.Join.Outstanding == 0 || (pol.Continuation() && st.Stack.Evacuations == 0) {
			t.Errorf("%v: %d joins suspended, %d stacks evacuated", pol, st.Join.Outstanding, st.Stack.Evacuations)
		}
		checkRecycled(t, pol, "Run", rt)

		rt = New(testConfig(pol, 3))
		if st := rt.Serve(serveTrace(24, 700*sim.Nanosecond, 7), 0); st.Completed != 24 {
			t.Fatalf("%v: %d of 24 requests completed", pol, st.Completed)
		}
		checkRecycled(t, pol, "Serve", rt)
	}
}

func checkRecycled(t *testing.T, pol Policy, what string, rt *Runtime) {
	t.Helper()
	if n := len(rt.freeThreads); n == 0 || n >= len(rt.threads) {
		t.Errorf("%v %s: %d Threads carried %d tasks, want fewer Threads than tasks", pol, what, n, len(rt.threads))
	}
	for i, th := range rt.freeThreads {
		if th.body == nil {
			t.Errorf("%v %s: recycled Thread %d lost its bound body", pol, what, i)
		}
		rest := *th
		rest.body = nil
		if !reflect.DeepEqual(rest, Thread{}) {
			t.Errorf("%v %s: recycled Thread %d is not zero: %+v", pol, what, i, rest)
		}
	}
}
