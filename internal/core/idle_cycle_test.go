package core_test

import (
	"testing"

	"contsteal/internal/core"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// TestIdleCycleStaysOnTheEngine runs the benchmark's dag_halfsteal cell — a
// 48×48 wavefront on 72 ITO-A workers under hier-half, where 99 % of 0.69 M
// steal attempts fail — and checks who pays for the idle cycle. The engine
// counters are the ones the blocking scheduler loop produced (recorded at the
// parent of the continuation-form loop: the simulation is the same, event for
// event); of the 2.7 M proc wake-ups, 88.7 % used to cost a goroutine switch,
// and now at most 20 % may: a pop miss, a failed steal and a backoff run
// inside event dispatch.
func TestIdleCycleStaysOnTheEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2.8 M-event cell")
	}
	steal, err := core.ParseStealPolicy("hier-half")
	if err != nil {
		t.Fatal(err)
	}
	d := workload.DAGParams{Shape: "wavefront", N: 48, Steps: 48, Seed: 3}
	rt := core.New(core.Config{
		Machine:    topo.ITOA(),
		Workers:    72,
		Policy:     core.ContGreedy,
		RemoteFree: remobj.LocalCollection,
		Steal:      steal,
		Seed:       3,
		MaxTime:    1800 * sim.Second,
	})
	ret, st := rt.Run(d.Task())
	if got, want := core.RetInt64(ret), d.SerialChecksum(); got != want {
		t.Fatalf("dag checksum %d, serial %d", got, want)
	}
	if want := (sim.EngineStats{Events: 2814403, Handoffs: 2735134, Callbacks: 835377}); st.Engine != want {
		t.Errorf("engine counters %+v, the blocking loop's were %+v", st.Engine, want)
	}
	if st.Work.StealsFail != 684408 || st.Work.StealsOK != 7376 {
		t.Errorf("steals ok/fail = %d/%d, want 7376/684408", st.Work.StealsOK, st.Work.StealsFail)
	}
	switches := st.Engine.Handoffs - st.InPlace - st.Inline
	t.Logf("handoffs %d = in place %d + inline %d + switches %d (%.1f %%)",
		st.Engine.Handoffs, st.InPlace, st.Inline, switches, 100*float64(switches)/float64(st.Engine.Handoffs))
	if 5*switches > st.Engine.Handoffs {
		t.Errorf("%d of %d wake-ups cost a goroutine switch, want at most 20 %%", switches, st.Engine.Handoffs)
	}
}

// TestSpawnAndDieStayOnTheEngine runs the benchmark's uts_shards2 cell — the
// T1XXL′ tree at seqdepth 6 on 72 ITO-A workers over two nodes and two engine
// shards — and checks who pays for a task's short runtime steps. The engine
// counters are the blocking spawn's and die's (recorded before they became
// chains: the simulation is the same, event for event); of the 2.1 M proc
// wake-ups, 94.9 % used to cost a goroutine switch, four per task of them
// for the spawn's charge, the entry allocation, the deque push and the dying
// thread's pop. Now those run inside event dispatch, and at most 55 % of the
// wake-ups may switch.
func TestSpawnAndDieStayOnTheEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2.2 M-event cell")
	}
	tree := workload.T1XXLPrime()
	rt := core.New(core.Config{
		Machine:    topo.ITOA(),
		Workers:    72,
		Shards:     2,
		Policy:     core.ContGreedy,
		RemoteFree: remobj.LocalCollection,
		Seed:       7,
		MaxTime:    1800 * sim.Second,
	})
	ret, st := rt.Run(workload.UTS(tree, 6))
	if got, want := core.RetInt64(ret), tree.CountSerial(); got != want {
		t.Fatalf("UTS counted %d nodes, serial %d", got, want)
	}
	if want := (sim.EngineStats{Events: 2158302, Handoffs: 2143761, Callbacks: 46912}); st.Engine != want {
		t.Errorf("engine counters %+v, the blocking spawn's were %+v", st.Engine, want)
	}
	if st.ExecTime != 5578237 {
		t.Errorf("exec time %d ns, want 5578237", st.ExecTime)
	}
	switches := st.Engine.Handoffs - st.InPlace - st.Inline
	t.Logf("handoffs %d = in place %d + inline %d + switches %d (%.1f %%)",
		st.Engine.Handoffs, st.InPlace, st.Inline, switches, 100*float64(switches)/float64(st.Engine.Handoffs))
	if 100*switches > 55*st.Engine.Handoffs {
		t.Errorf("%d of %d wake-ups cost a goroutine switch, want at most 55 %%", switches, st.Engine.Handoffs)
	}
}
