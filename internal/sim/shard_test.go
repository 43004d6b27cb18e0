package sim

import (
	"fmt"
	"strings"
	"testing"
)

// shardedOrderedProgram runs a program with explicit shard placement on an
// n-shard engine (or the plain engine when n == 1, using the
// same entry points) and returns the dispatch log and the engine.
func shardedOrderedProgram(n int) ([]string, *Engine) {
	e := NewEngineShards(n)
	var log []string
	rec := func(what string) { log = append(log, fmt.Sprintf("t=%d %s", int64(e.Now()), what)) }
	for i := 0; i < 4; i++ {
		i := i
		shard := i % e.Shards()
		e.GoIDOn(shard, "w", int64(i), func(p *Proc) {
			for step := 0; step < 5; step++ {
				p.Sleep(Time(2 + i))
				rec(fmt.Sprintf("w%d step%d", i, step))
				// Cross-shard completion, like an rdma op landing on the
				// target node's heap — including zero-latency same-tick ones,
				// legal in ordered mode (no window to violate).
				e.AfterOn((shard+1)%e.Shards(), Time(step), func() {
					rec(fmt.Sprintf("w%d remote step%d", i, step))
				})
				e.After(1, func() { rec(fmt.Sprintf("w%d local step%d", i, step)) })
			}
		})
	}
	e.Run(Forever)
	return log, e
}

// TestEngineShardsByteIdentical is the ordered-mode identity: the same
// program dispatches in exactly the same order at every shard count, so
// logs and EngineStats are byte-identical to the one-shard engine.
func TestEngineShardsByteIdentical(t *testing.T) {
	wantLog, we := shardedOrderedProgram(1)
	want := strings.Join(wantLog, "\n")
	for _, n := range []int{2, 3, 4} {
		gotLog, ge := shardedOrderedProgram(n)
		if got := strings.Join(gotLog, "\n"); got != want {
			t.Fatalf("shards=%d: dispatch order diverged\n--- 1 ---\n%s\n--- %d ---\n%s", n, want, n, got)
		}
		if ge.Stats() != we.Stats() {
			t.Errorf("shards=%d: stats %+v, single-heap %+v", n, ge.Stats(), we.Stats())
		}
	}
}

// TestShardStatsAccounting checks the per-shard counters: dispatches sum to
// the global event count, and cross-shard traffic is visible in Inbound.
func TestShardStatsAccounting(t *testing.T) {
	_, e := shardedOrderedProgram(4)
	ss := e.ShardStats()
	if len(ss) != 4 {
		t.Fatalf("ShardStats len = %d", len(ss))
	}
	var events, inbound uint64
	for _, s := range ss {
		events += s.Events
		inbound += s.Inbound
	}
	if events != e.Stats().Events {
		t.Errorf("sum(ShardStats.Events) = %d, Stats().Events = %d", events, e.Stats().Events)
	}
	if inbound == 0 {
		t.Error("want cross-shard traffic in Inbound, got none")
	}
	if got := e.CrossShard(); got != inbound {
		t.Errorf("CrossShard() = %d, sum(Inbound) = %d", got, inbound)
	}
	if _, se := shardedOrderedProgram(1); se.CrossShard() != 0 {
		t.Errorf("single-heap CrossShard() = %d, want 0", se.CrossShard())
	}
}

func TestShardPlacementValidation(t *testing.T) {
	e := NewEngineShards(2)
	for name, fn := range map[string]func(){
		"GoIDOn-high":  func() { e.GoIDOn(2, "w", 0, func(p *Proc) {}) },
		"GoIDOn-neg":   func() { e.GoIDOn(-1, "w", 0, func(p *Proc) {}) },
		"AfterOn-high": func() { e.AfterOn(2, 1, func() {}) },
		"AfterOn-neg":  func() { e.AfterOn(-1, 1, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAssertShardMisassignment is the fail-fast ownership guard: a proc
// asserted against the wrong shard must panic immediately, before any event
// can land on the wrong heap.
func TestAssertShardMisassignment(t *testing.T) {
	e := NewEngineShards(2)
	defer e.Shutdown()
	p := e.GoIDOn(1, "w", 7, func(p *Proc) { p.Sleep(5) })
	e.AssertShard(p, 1) // correct owner: no panic
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AssertShard with wrong shard did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "proc↔shard ownership must be stable") {
			t.Fatalf("unexpected panic message: %v", r)
		}
	}()
	e.AssertShard(p, 0)
}

// TestProcEventsFollowShard checks that a proc's wake-ups always land on its
// owning heap, whichever shard's context scheduled the wake.
func TestProcEventsFollowShard(t *testing.T) {
	e := NewEngineShards(2)
	var woke bool
	var target *Proc
	target = e.GoIDOn(1, "sleeper", 0, func(p *Proc) {
		p.Park()
		woke = true
	})
	e.GoIDOn(0, "waker", 0, func(p *Proc) {
		p.Sleep(3)
		e.Wake(target) // scheduled from shard 0's context
	})
	e.Run(Forever)
	if !woke {
		t.Fatal("parked proc never woke")
	}
	ss := e.ShardStats()
	// The wake event crossed 0 -> 1, so shard 1 must have seen inbound
	// traffic and dispatched it.
	if ss[1].Inbound == 0 {
		t.Errorf("shard 1 Inbound = 0, want the cross-shard wake counted; stats %+v", ss)
	}
}
