package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardProgram builds the same shard-confined program against either the
// windowed Sharded engine or a serial Engine oracle (where cross-shard
// routing degenerates to After). Each shard runs one driver proc that mixes
// local sleeps, local callbacks, and cross-shard routes — including exact
// same-tick collisions between locally scheduled and routed events, the case
// the lineage keys exist for. Log entries are appended only by code running
// on the owning shard, so the program is shard-confined by construction.
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
// t=10); the lineage keys must reproduce that order even though B's local
// event entered B's heap before the barrier injected A's.
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

// TestShardedHorizonMidWindow checks Run(until) with a horizon that falls in
// the middle of a window: every shard clock must advance exactly to the
// horizon, and resuming with Forever must complete identically to an
// uninterrupted run.
func TestShardedHorizonMidWindow(t *testing.T) {
	sp := &shardProgram{n: 3, look: 10}
	_, fullStats := sp.runSerial(Forever)
	full := joinLogs(sp.logs)

	const horizon = 17 // mid-round: the first horizons start at 0 with look 10
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
	for i := 0; i < s.Shards(); i++ {
		if now := s.Shard(i).Now(); now != horizon {
			t.Errorf("shard %d clock %v after horizon return, want %v", i, now, horizon)
		}
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
// are still pending — some in a destination heap, one still in an outbox —
// and checks nothing survives: no queued events, no live procs, no leaked
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
	// A setup-time route parks in the outbox until the next Run — it must be
	// dropped by Shutdown too.
	s.RouteAfter(0, 1, look, func() { t.Error("outbox event ran after Shutdown") })
	if s.Pending() == 0 {
		t.Fatal("want in-flight events before Shutdown")
	}
	if s.Live() == 0 {
		t.Fatal("want live procs before Shutdown")
	}
	s.Shutdown()
	if n := s.Pending(); n != 0 {
		t.Errorf("Pending() = %d after Shutdown", n)
	}
	if n := s.Live(); n != 0 {
		t.Errorf("Live() = %d after Shutdown", n)
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestShardedProcPanic checks failure propagation from a non-zero shard:
// exactly one ProcPanic reaches the caller, carrying the earliest failure
// (shard order breaking ties), and the whole group is torn down.
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
	if n := s.Live(); n != 0 {
		t.Errorf("Live() = %d after failed run", n)
	}
	if n := s.Pending(); n != 0 {
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

// TestShardedIdleShardNoStarvation pins the null-message substitute of the
// adaptive horizons: a shard that never has events advertises no bound, so it
// must neither stall the chatty shards nor force extra rounds. Two shards
// relay a token with long gaps while the third stays empty for the whole
// run; the run must complete (a stalled horizon computation would trip the
// round-stall panic or deadlock), log exactly what the serial engine would —
// hop k at 5 + k·gap on shard k mod 2 — and take exactly one round per hop.
func TestShardedIdleShardNoStarvation(t *testing.T) {
	const (
		look  = Time(10)
		gap   = 40 * look // each hop spans many lookaheads of idle time
		balls = uint64(12)
	)
	want := make([][]string, 2)
	for k := uint64(0); k < balls; k++ {
		want[k%2] = append(want[k%2], fmt.Sprintf("t=%d hop%d", int64(5+Time(k)*gap), k%2))
	}
	s := NewSharded(3, look) // shard 2 stays idle throughout
	defer s.Shutdown()
	logs := relayProgram(s, gap, balls)
	s.Run(Forever)
	if got := joinLogs(logs); got != joinLogs(want) {
		t.Fatalf("relay log diverged from serial\n--- serial ---\n%s\n--- sharded ---\n%s", joinLogs(want), got)
	}
	if s.Rounds() != balls {
		t.Errorf("rounds = %d, want one per hop (%d)", s.Rounds(), balls)
	}
}

// hopRing and localChain are pre-built, closure-free workloads for the
// steady-state allocation gate: every func value is created once at setup,
// so repeated runs exercise only the engine's event path — schedule, heap,
// outbox, round machinery, and the lineage-key pool.
//
// A ring relays one token around the shards with the lookahead delay;
// run[i] executes on shard i. The hop count is reset per run; keeping it a
// multiple of the shard count makes the relay end on its start shard, so the
// cascade that recycles the whole lineage chain refills the pool of the same
// engine the setup-time root was drawn from, keeping the per-engine pools
// balanced across runs.
type hopRing struct {
	s    *Sharded
	hops int
	run  []func()
}

func newHopRing(s *Sharded) *hopRing {
	r := &hopRing{s: s, run: make([]func(), s.Shards())}
	for i := range r.run {
		i := i
		dst := (i + 1) % s.Shards()
		r.run[i] = func() {
			if r.hops > 0 {
				r.hops--
				r.s.RouteAfter(i, dst, r.s.Lookahead(), r.run[dst])
			}
		}
	}
	return r
}

// localChain is the shard-local counterpart: a callback that reschedules
// itself until its budget runs out, exercising the pure After path.
type localChain struct {
	e    *Engine
	left int
	fn   func()
}

func newLocalChain(e *Engine) *localChain {
	c := &localChain{e: e}
	c.fn = func() {
		if c.left > 0 {
			c.left--
			c.e.After(3, c.fn)
		}
	}
	return c
}

// TestShardedSteadyStateAllocFree is the allocs/op gate of the event path:
// after warm-up runs fill the pools (heap capacity, outbox capacity,
// lineage-node free lists, round workers), a full inject → horizon → run →
// release cycle must not allocate at all. The workload mixes the local
// callback path with cross-shard relays whose lineage chains cross engines,
// so the gate also covers the key-pool hand-off between shards.
func TestShardedSteadyStateAllocFree(t *testing.T) {
	const look = Time(10)
	s := NewSharded(2, look)
	defer s.Shutdown()
	rings := []*hopRing{newHopRing(s), newHopRing(s)}
	locals := []*localChain{newLocalChain(s.Shard(0)), newLocalChain(s.Shard(1))}
	op := func() {
		for i := 0; i < 2; i++ {
			rings[i].hops = 8 // multiple of the shard count, see hopRing
			locals[i].left = 16
			s.Shard(i).After(1, rings[i].run[i])
			s.Shard(i).After(2, locals[i].fn)
		}
		s.Run(Forever)
	}
	for i := 0; i < 3; i++ {
		op() // warm up pools, heap and outbox capacity, and the workers
	}
	if avg := testing.AllocsPerRun(50, op); avg != 0 {
		t.Errorf("steady-state event path allocates %.1f times per run, want 0", avg)
	}
}

// TestKeyCmpTotalOrder sanity-checks the lineage comparison on hand-built
// chains: setup keys order by root index, siblings by call index, and
// diverging times decide regardless of depth.
func TestKeyCmpTotalOrder(t *testing.T) {
	r0 := &knode{t: 0, idx: 0}
	r1 := &knode{t: 0, idx: 1}
	a := &knode{t: 5, parent: r0, idx: 0}
	b := &knode{t: 5, parent: r0, idx: 1}
	deep := &knode{t: 9, parent: &knode{t: 7, parent: a, idx: 0}, idx: 3}
	cases := []struct {
		x, y *knode
		want int
	}{
		{nil, r0, -1},   // setup precedes dispatch
		{r0, r1, -1},    // root program order
		{a, b, -1},      // sibling call order
		{r0, a, -1},     // ancestor scheduled earlier in time
		{b, deep, -1},   // t=5 vs t=9 at the divergence point
		{deep, deep, 0}, // identity
	}
	for _, c := range cases {
		if got := keyCmp(c.x, c.y); sign(got) != c.want {
			t.Errorf("keyCmp(%v, %v) = %d, want sign %d", c.x, c.y, got, c.want)
		}
		if c.want != 0 {
			if got := keyCmp(c.y, c.x); sign(got) != -c.want {
				t.Errorf("keyCmp reversed (%v, %v) = %d, want sign %d", c.y, c.x, got, -c.want)
			}
		}
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}
