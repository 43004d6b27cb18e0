package core

import (
	"bytes"
	"reflect"
	"testing"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// serveTrace builds n requests arriving every gap, each spawning a small
// fork-join DAG.
func serveTrace(n int, gap sim.Time, fib int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: int64(i), At: sim.Time(i) * gap, Fn: fibTask(fib)}
	}
	return reqs
}

// runServe runs one serve configuration and returns its stats plus the
// trace/metrics serializations.
func runServe(t *testing.T, policy Policy, workers, shards int, reqs []Request, horizon sim.Time) (ServeStats, []byte, []byte) {
	t.Helper()
	cfg := testConfig(policy, workers)
	cfg.Shards = shards
	cfg.Trace = true
	cfg.Metrics = true
	rt := New(cfg)
	st := rt.Serve(reqs, horizon)
	var tr, mt bytes.Buffer
	if err := rt.TraceLog().WriteJSON(&tr); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := st.Obs.WriteTSV(&mt); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return st, tr.Bytes(), mt.Bytes()
}

// TestServeDrainsEveryPolicy: every policy completes every admitted request
// when no horizon cuts the run, and the per-request records are coherent.
func TestServeDrainsEveryPolicy(t *testing.T) {
	for _, pol := range allPolicies {
		reqs := serveTrace(24, 700*sim.Nanosecond, 7)
		st, _, _ := runServe(t, pol, 5, 1, reqs, 0)
		if st.Admitted != 24 || st.Injected != 24 || st.Completed != 24 || st.InFlight != 0 {
			t.Fatalf("%v: admitted=%d injected=%d completed=%d inflight=%d, want 24/24/24/0",
				pol, st.Admitted, st.Injected, st.Completed, st.InFlight)
		}
		if len(st.Done) != 24 {
			t.Fatalf("%v: %d done records, want 24", pol, len(st.Done))
		}
		seen := make(map[int64]bool)
		var prevEnd sim.Time
		for _, d := range st.Done {
			if seen[d.ID] {
				t.Fatalf("%v: request %d completed twice", pol, d.ID)
			}
			seen[d.ID] = true
			if d.End < d.At {
				t.Fatalf("%v: request %d completed at %v before arriving at %v", pol, d.ID, d.End, d.At)
			}
			if d.End < prevEnd {
				t.Fatalf("%v: completions out of order: %v after %v", pol, d.End, prevEnd)
			}
			prevEnd = d.End
		}
		if st.ExecTime < prevEnd {
			t.Fatalf("%v: ExecTime %v before last completion %v", pol, st.ExecTime, prevEnd)
		}
	}
}

// TestServeHorizonCut: a horizon tighter than the drain point reports the
// remainder as in-flight — conservation holds exactly, and arrivals at or
// past the horizon are never injected.
func TestServeHorizonCut(t *testing.T) {
	for _, pol := range allPolicies {
		reqs := serveTrace(30, 2*sim.Microsecond, 10)
		horizon := 20 * sim.Microsecond // cuts both arrivals and execution
		st, _, _ := runServe(t, pol, 3, 1, reqs, horizon)
		if st.Admitted != 30 {
			t.Fatalf("%v: admitted=%d, want 30", pol, st.Admitted)
		}
		if st.Completed+st.InFlight != st.Admitted {
			t.Fatalf("%v: conservation violated: %d completed + %d in-flight != %d admitted",
				pol, st.Completed, st.InFlight, st.Admitted)
		}
		if st.InFlight == 0 {
			t.Fatalf("%v: expected in-flight requests at a %v horizon", pol, horizon)
		}
		if st.Injected >= 20 { // arrivals 10..29 land at/after 20µs
			t.Fatalf("%v: injected=%d, want < 20 (arrivals past the horizon must not fire)", pol, st.Injected)
		}
		if uint64(len(st.Done)) != st.Completed {
			t.Fatalf("%v: %d done records, completed=%d", pol, len(st.Done), st.Completed)
		}
		for _, d := range st.Done {
			if d.End > horizon {
				t.Fatalf("%v: completion at %v past horizon %v", pol, d.End, horizon)
			}
		}
	}
}

// TestServeEmptyTrace: zero requests complete immediately.
func TestServeEmptyTrace(t *testing.T) {
	st, _, _ := runServe(t, ContGreedy, 3, 1, nil, 0)
	if st.Admitted != 0 || st.Completed != 0 || st.InFlight != 0 {
		t.Fatalf("empty serve: %+v", st)
	}
}

// TestServeShardsByteIdentical: open-system runs obey the same determinism
// contract as closed-system ones — stats, per-request completions, trace
// and metrics are byte-identical at every shard count.
func TestServeShardsByteIdentical(t *testing.T) {
	const workers = 7
	for _, pol := range allPolicies {
		reqs := serveTrace(20, 900*sim.Nanosecond, 8)
		want, wantTr, wantMt := runServe(t, pol, workers, 1, reqs, 0)
		for _, shards := range []int{2, 4, 7} {
			got, tr, mt := runServe(t, pol, workers, shards, reqs, 0)
			if got.Admitted != want.Admitted || got.Completed != want.Completed ||
				got.Injected != want.Injected || got.ExecTime != want.ExecTime {
				t.Errorf("%v shards=%d: serve stats diverged", pol, shards)
			}
			if len(got.Done) != len(want.Done) {
				t.Fatalf("%v shards=%d: %d done records, want %d", pol, shards, len(got.Done), len(want.Done))
			}
			for i := range got.Done {
				if got.Done[i] != want.Done[i] {
					t.Errorf("%v shards=%d: done[%d] = %+v, want %+v", pol, shards, i, got.Done[i], want.Done[i])
					break
				}
			}
			if !bytes.Equal(tr, wantTr) {
				t.Errorf("%v shards=%d: trace JSON differs from single-heap run", pol, shards)
			}
			if !bytes.Equal(mt, wantMt) {
				t.Errorf("%v shards=%d: metrics TSV differs from single-heap run", pol, shards)
			}
		}
	}
}

// TestServeTraceVerifies: the layered trace's attribution invariants hold
// exactly on a drained serve run (TestServeHorizonCutTraceVerifies cuts one).
func TestServeTraceVerifies(t *testing.T) {
	for _, pol := range allPolicies {
		cfg := testConfig(pol, 4)
		cfg.Trace = true
		rt := New(cfg)
		rt.Serve(serveTrace(16, 800*sim.Nanosecond, 8), 0)
		if err := rt.TraceLog().Verify(); err != nil {
			t.Errorf("%v: trace verification failed: %v", pol, err)
		}
	}
}

// TestServeHorizonCutTraceVerifies: a run cut at any instant still has a
// trace that agrees with its counters. A steal used to be counted when its
// chain completed and its span closed only after the stolen stack had
// migrated, so a cut in between (27–35 µs here, under both continuation
// policies) left StealsOK one ahead of the steal spans.
func TestServeHorizonCutTraceVerifies(t *testing.T) {
	for _, pol := range allPolicies {
		cut := 0
		for h := 20 * sim.Microsecond; h <= 40*sim.Microsecond; h += sim.Microsecond {
			cfg := testConfig(pol, 8)
			mach := topo.ITOA()
			mach.CoresPerNode = 4
			cfg.Machine = mach
			cfg.Trace = true
			rt := New(cfg)
			st := rt.Serve(serveTrace(30, 2*sim.Microsecond, 10), h)
			if st.InFlight > 0 {
				cut++
			}
			if err := rt.TraceLog().Verify(); err != nil {
				t.Errorf("%v cut at %v: %v", pol, h, err)
			}
		}
		if cut == 0 {
			t.Errorf("%v: no horizon left a request in flight", pol)
		}
	}
}

// TestServeSojournHistogramMatchesCompletions: the serve.sojourn histogram
// registers lazily (closed-system metric output is unchanged) and counts
// exactly one observation per completed request.
func TestServeSojournHistogramMatchesCompletions(t *testing.T) {
	reqs := serveTrace(18, 600*sim.Nanosecond, 7)
	st, _, _ := runServe(t, ContGreedy, 4, 1, reqs, 0)
	h, ok := st.Obs.Lookup("serve.sojourn")
	if !ok {
		t.Fatal("serve.sojourn histogram not registered")
	}
	if h.N != st.Completed {
		t.Fatalf("serve.sojourn N=%d, completed=%d", h.N, st.Completed)
	}
	var sum sim.Time
	for _, d := range st.Done {
		sum += d.Sojourn()
	}
	if h.Sum != sum {
		t.Fatalf("serve.sojourn Sum=%v, Σ sojourns=%v", h.Sum, sum)
	}

	// Closed-system runs must not register the histogram at all.
	cfg := testConfig(ContGreedy, 4)
	cfg.Metrics = true
	rt := New(cfg)
	_, rst := rt.Run(fibTask(10))
	if _, ok := rst.Obs.Lookup("serve.sojourn"); ok {
		t.Fatal("serve.sojourn registered on a closed-system run")
	}
}

// TestServeLateArrivalAfterIdleBackoff is the regression test for the
// steal-backoff reset: with steal backoff enabled, a long-idle system must
// pick up a late arrival at the base idle delay, not after sleeping out a
// backoff streak accumulated during the idle period (the waitQ-resume and
// inbox paths both reset the streak). The late request's sojourn is
// bounded by its own DAG time plus a small scheduling slack.
func TestServeLateArrivalAfterIdleBackoff(t *testing.T) {
	for _, pol := range []Policy{ContGreedy, ContStalling} {
		// One early request, then a 200µs idle gap (workers rack up failed
		// steals), then a late request.
		reqs := []Request{
			{ID: 0, At: 0, Fn: fibTask(8)},
			{ID: 1, At: 200 * sim.Microsecond, Fn: fibTask(4)},
		}
		rt := New(testConfig(pol, 2))
		rt.stealBackoff = true
		st := rt.Serve(reqs, 0)
		if st.Completed != 2 {
			t.Fatalf("%v: completed=%d, want 2", pol, st.Completed)
		}
		var late RequestDone
		for _, d := range st.Done {
			if d.ID == 1 {
				late = d
			}
		}
		// fib(4) on a 2-worker Uniform(500) machine is well under 10µs of
		// DAG time; the max backoff sleep alone is 12.8µs, so a stale
		// streak shows up as a sojourn far above this bound.
		if limit := 10 * sim.Microsecond; late.Sojourn() > limit {
			t.Errorf("%v: late arrival sojourn %v exceeds %v — idle-backoff streak not reset",
				pol, late.Sojourn(), limit)
		}
	}
}

// TestServeSecondCallPanics: Serve is single-use, like Run.
func TestServeSecondCallPanics(t *testing.T) {
	cfg := testConfig(ContGreedy, 2)
	rt := New(cfg)
	rt.Serve(serveTrace(2, 100, 5), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Serve call did not panic")
		}
	}()
	rt.Serve(serveTrace(2, 100, 5), 0)
}

// TestServeUnsortedPanics: arrival traces must be time-sorted.
func TestServeUnsortedPanics(t *testing.T) {
	cfg := testConfig(ContGreedy, 2)
	rt := New(cfg)
	reqs := []Request{{ID: 0, At: 100, Fn: fibTask(3)}, {ID: 1, At: 50, Fn: fibTask(3)}}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted serve trace did not panic")
		}
	}()
	rt.Serve(reqs, 0)
}

// TestServeTracingOnlyObserves: the same Serve with Config.Trace off and on
// yields identical ServeStats — every counter, completion record, engine
// count and metric — under every policy, drained and horizon-cut. This is the
// property that lets the serve experiment trace every "ours" cell for its
// request attribution without moving a simulated tick.
func TestServeTracingOnlyObserves(t *testing.T) {
	for _, pol := range allPolicies {
		for _, horizon := range []sim.Time{0, 12 * sim.Microsecond} {
			run := func(trace bool) (ServeStats, []byte) {
				cfg := testConfig(pol, 4)
				cfg.Trace = trace
				cfg.Metrics = true
				rt := New(cfg)
				st := rt.Serve(serveTrace(24, 700*sim.Nanosecond, 7), horizon)
				if (rt.TraceLog() != nil) != trace {
					t.Fatalf("%v: TraceLog present = %v with Config.Trace = %v", pol, !trace, trace)
				}
				var mt bytes.Buffer
				if err := st.Obs.WriteTSV(&mt); err != nil {
					t.Fatalf("metrics: %v", err)
				}
				st.Obs = nil
				return st, mt.Bytes()
			}
			off, offMetrics := run(false)
			on, onMetrics := run(true)
			if horizon > 0 && off.InFlight == 0 {
				t.Errorf("%v: horizon %v cut nothing", pol, horizon)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("%v horizon %v: tracing changed the stats:\n on %+v\noff %+v", pol, horizon, on, off)
			}
			if !bytes.Equal(onMetrics, offMetrics) {
				t.Errorf("%v horizon %v: tracing changed the metrics registry", pol, horizon)
			}
		}
	}
}
