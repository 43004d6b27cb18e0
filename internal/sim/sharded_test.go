package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardProgram builds the same shard-confined program against either
// Sharded or a plain Engine oracle (where cross-shard routing degenerates to
// After). Each shard runs one driver proc that mixes local sleeps, local
// callbacks, and cross-shard routes — including exact same-tick collisions
// between locally scheduled and routed events. Log entries are appended only
// by code running on the owning shard, so the program is shard-confined by
// construction.
type shardProgram struct {
	n    int
	look Time
	logs [][]string
}

func (sp *shardProgram) log(shard int, now Time, what string) {
	sp.logs[shard] = append(sp.logs[shard], fmt.Sprintf("t=%d %s", int64(now), what))
}

// run executes the program. spawn/route abstract the two engines; now reads
// the executing engine's clock for the given shard.
func (sp *shardProgram) build(
	spawn func(shard int, name string, body func(p *Proc)),
	route func(src, dst int, d Time, fn func()),
	after func(shard int, d Time, fn func()),
	now func(shard int) Time,
) {
	for i := 0; i < sp.n; i++ {
		i := i
		spawn(i, fmt.Sprintf("driver%d", i), func(p *Proc) {
			for step := 0; step < 6; step++ {
				step := step
				p.Sleep(Time(3 + i + step))
				sp.log(i, now(i), fmt.Sprintf("shard%d step%d", i, step))
				dst := (i + 1) % sp.n
				if dst != i {
					// Route so that the arrival collides with dst's own
					// local activity at the same tick on some steps.
					d := sp.look + Time(step%3)
					route(i, dst, d, func() {
						sp.log(dst, now(dst), fmt.Sprintf("shard%d got from shard%d step%d", dst, i, step))
						after(dst, sp.look/2, func() {
							sp.log(dst, now(dst), fmt.Sprintf("shard%d followup of shard%d step%d", dst, i, step))
						})
					})
				}
				after(i, Time(step), func() {
					sp.log(i, now(i), fmt.Sprintf("shard%d local cb step%d", i, step))
				})
			}
		})
	}
}

// runSerial executes the program on a single classic engine (the oracle).
func (sp *shardProgram) runSerial(until Time) (Time, EngineStats) {
	e := NewEngine()
	sp.logs = make([][]string, sp.n)
	sp.build(
		func(shard int, name string, body func(p *Proc)) { e.Go(name, body) },
		func(src, dst int, d Time, fn func()) { e.After(d, fn) },
		func(shard int, d Time, fn func()) { e.After(d, fn) },
		func(shard int) Time { return e.Now() },
	)
	end := e.Run(until)
	return end, e.Stats()
}

// runSharded executes the program on a group of n shards.
func (sp *shardProgram) runSharded(until Time) (*Sharded, Time, EngineStats) {
	s := NewSharded(sp.n, sp.look)
	sp.logs = make([][]string, sp.n)
	sp.build(
		func(shard int, name string, body func(p *Proc)) { s.Go(shard, name, body) },
		s.RouteAfter,
		func(shard int, d Time, fn func()) { s.Shard(shard).After(d, fn) },
		func(shard int) Time { return s.Shard(shard).Now() },
	)
	end := s.Run(until)
	return s, end, s.Stats()
}

func joinLogs(logs [][]string) string {
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "== shard %d ==\n%s\n", i, strings.Join(l, "\n"))
	}
	return b.String()
}

func TestShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		sp := &shardProgram{n: n, look: 10}
		wantEnd, wantStats := sp.runSerial(Forever)
		want := joinLogs(sp.logs)

		s, gotEnd, gotStats := sp.runSharded(Forever)
		s.Shutdown()
		got := joinLogs(sp.logs)
		if got != want {
			t.Fatalf("shards=%d: log diverged from serial\n--- serial ---\n%s\n--- sharded ---\n%s", n, want, got)
		}
		if gotEnd != wantEnd {
			t.Errorf("shards=%d: Run returned %v, serial %v", n, gotEnd, wantEnd)
		}
		if gotStats != wantStats {
			t.Errorf("shards=%d: stats %+v, serial %+v", n, gotStats, wantStats)
		}
	}
}

// TestShardedSameTickTie pins the exact scenario that breaks naive barrier
// merging: shard B schedules a local event at the same virtual tick at which
// shard A's routed event arrives. The serial engine orders them by
// scheduling seq (A's route was issued at t=9, before B's local schedule at
// t=10); the sharded view must not change that order.
func TestShardedSameTickTie(t *testing.T) {
	const look = 11
	run := func(serial bool) []string {
		var logs []string
		mk := func(route func(d Time, fn func()), afterB func(d Time, fn func()), spawnA, spawnB func(body func(p *Proc))) {
			spawnA(func(p *Proc) {
				p.Sleep(9)
				// Arrives at t=20 on shard B, issued first in serial order.
				route(look, func() { logs = append(logs, "routed-from-A") })
			})
			spawnB(func(p *Proc) {
				p.Sleep(10)
				// Also t=20, issued second in serial order.
				afterB(10, func() { logs = append(logs, "local-on-B") })
			})
		}
		if serial {
			e := NewEngine()
			mk(func(d Time, fn func()) { e.After(d, fn) },
				func(d Time, fn func()) { e.After(d, fn) },
				func(body func(p *Proc)) { e.Go("a", body) },
				func(body func(p *Proc)) { e.Go("b", body) })
			e.Run(Forever)
		} else {
			s := NewSharded(2, look)
			mk(func(d Time, fn func()) { s.RouteAfter(0, 1, d, fn) },
				func(d Time, fn func()) { s.Shard(1).After(d, fn) },
				func(body func(p *Proc)) { s.Go(0, "a", body) },
				func(body func(p *Proc)) { s.Go(1, "b", body) })
			s.Run(Forever)
		}
		return logs
	}
	want := run(true)
	got := run(false)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("tie order = %v, serial = %v", got, want)
	}
	if want[0] != "routed-from-A" {
		t.Fatalf("oracle sanity: serial order = %v, want routed-from-A first", want)
	}
}

// TestShardedHorizonMidWindow checks Run(until) with a horizon that falls
// between a route's issue and its arrival: the clock must advance exactly to
// the horizon, and resuming with Forever must complete identically to an
// uninterrupted run.
func TestShardedHorizonMidWindow(t *testing.T) {
	sp := &shardProgram{n: 3, look: 10}
	_, fullStats := sp.runSerial(Forever)
	full := joinLogs(sp.logs)

	const horizon = 17 // each driver's second route is issued before t=17 and lands after it
	s := NewSharded(sp.n, sp.look)
	defer s.Shutdown()
	sp.logs = make([][]string, sp.n)
	sp.build(
		func(shard int, name string, body func(p *Proc)) { s.Go(shard, name, body) },
		s.RouteAfter,
		func(shard int, d Time, fn func()) { s.Shard(shard).After(d, fn) },
		func(shard int) Time { return s.Shard(shard).Now() },
	)
	if end := s.Run(horizon); end != horizon {
		t.Fatalf("Run(%d) = %v, want the horizon", horizon, end)
	}
	if now := s.Shard(0).Now(); now != horizon {
		t.Errorf("clock %v after horizon return, want %v", now, horizon)
	}
	s.Run(Forever)
	if got := joinLogs(sp.logs); got != full {
		t.Errorf("split run diverged from uninterrupted run\n--- full ---\n%s\n--- split ---\n%s", full, got)
	}
	if got := s.Stats(); got != fullStats {
		t.Errorf("split run stats %+v, want %+v", got, fullStats)
	}
}

// countGoroutines polls until the goroutine count drops back to at most
// base, tolerating scheduler lag, and returns the final count.
func countGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedShutdownInFlight tears a group down while cross-shard events
// are still pending — some issued during the run, one at setup time — and
// checks nothing survives: no queued events, no live procs, no leaked
// goroutines.
func TestShardedShutdownInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	const look = 10
	s := NewSharded(3, look)
	for i := 0; i < 3; i++ {
		i := i
		s.Go(i, fmt.Sprintf("d%d", i), func(p *Proc) {
			p.Sleep(5)
			s.RouteAfter(i, (i+1)%3, look+5, func() {
				t.Error("routed event ran after Shutdown")
			})
			p.Sleep(1000) // still asleep when the run is cut short
		})
	}
	if end := s.Run(7); end != 7 {
		t.Fatalf("Run(7) = %v", end)
	}
	// A setup-time route waits for the next Run; Shutdown must drop it too.
	s.RouteAfter(0, 1, look, func() { t.Error("outbox event ran after Shutdown") })
	if s.Shard(0).Pending() == 0 {
		t.Fatal("want in-flight events before Shutdown")
	}
	if s.Shard(0).Live() == 0 {
		t.Fatal("want live procs before Shutdown")
	}
	s.Shutdown()
	if n := s.Shard(0).Pending(); n != 0 {
		t.Errorf("Pending() = %d after Shutdown", n)
	}
	if n := s.Shard(0).Live(); n != 0 {
		t.Errorf("Live() = %d after Shutdown", n)
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestShardedProcPanic checks failure propagation from a non-zero shard:
// exactly one ProcPanic reaches the caller, carrying the failure, and the
// whole group is torn down.
func TestShardedProcPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSharded(4, 10)
	for i := 0; i < 4; i++ {
		i := i
		s.Go(i, fmt.Sprintf("w%d", i), func(p *Proc) {
			for {
				p.Sleep(3)
				if i == 2 && p.Now() >= 9 {
					panic("boom on shard 2")
				}
			}
		})
	}
	var got *ProcPanic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Run did not panic")
			}
			pp, ok := r.(*ProcPanic)
			if !ok {
				t.Fatalf("recovered %T, want *ProcPanic", r)
			}
			got = pp
		}()
		s.Run(Forever)
	}()
	if got.Proc != "w2" {
		t.Errorf("failing proc = %q, want w2", got.Proc)
	}
	if got.T != 9 {
		t.Errorf("failure time = %v, want 9", got.T)
	}
	if n := s.Shard(0).Live(); n != 0 {
		t.Errorf("Live() = %d after failed run", n)
	}
	if n := s.Shard(0).Pending(); n != 0 {
		t.Errorf("Pending() = %d after failed run", n)
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

func TestRouteAfterBelowLookaheadPanics(t *testing.T) {
	s := NewSharded(2, 10)
	defer s.Shutdown()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("RouteAfter below lookahead did not panic")
		}
	}()
	s.RouteAfter(0, 1, 9, func() {})
}

func TestNewShardedValidation(t *testing.T) {
	for _, c := range []struct {
		n    int
		look Time
	}{{0, 10}, {2, 0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(%d, %d) did not panic", c.n, c.look)
				}
			}()
			NewSharded(c.n, c.look)
		}()
	}
}
