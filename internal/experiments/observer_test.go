package experiments

import (
	"testing"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// checkTraceAgreesWithStats asserts the tentpole invariants on an observed
// run: the trace-derived busy time and steal latency reproduce the stats
// counters to the tick, and the full Verify cross-check passes.
func checkTraceAgreesWithStats(t *testing.T, ob *Observer) {
	t.Helper()
	if ob.Log == nil {
		t.Fatal("observer did not capture a trace")
	}
	var busy sim.Time
	for _, a := range ob.Log.Attribution() {
		busy += a.Busy
	}
	if busy != ob.Stats.Work.BusyTime {
		t.Errorf("%v: trace busy %d != stats busy %d",
			ob.Coord, int64(busy), int64(ob.Stats.Work.BusyTime))
	}
	var stealLat sim.Time
	for _, e := range ob.Log.Events {
		if e.Kind == obs.KindSteal {
			stealLat += e.Dur
		}
	}
	if stealLat != ob.Stats.Work.StealLatency {
		t.Errorf("%v: trace steal latency %d != stats %d",
			ob.Coord, int64(stealLat), int64(ob.Stats.Work.StealLatency))
	}
	if err := ob.Log.Verify(); err != nil {
		t.Errorf("%v: %v", ob.Coord, err)
	}
}

func TestFig6TraceStatsAgreement(t *testing.T) {
	for _, par := range []int{1, 8} {
		ob := &Observer{Trace: true}
		o := Options{Workers: 8, Scale: -4, Parallel: par, Observer: ob}
		Fig6(o, "recpfor", []int{64})
		checkTraceAgreesWithStats(t, ob)
		if ob.Stats.Obs == nil {
			t.Error("metrics registry not collected")
		}
	}
}

func TestFig9TraceStatsAgreement(t *testing.T) {
	for _, par := range []int{1, 8} {
		ob := &Observer{Trace: true}
		o := Options{Workers: 6, Parallel: par, Observer: ob}
		Fig9(o, "T1WL", []int{6}, 12)
		checkTraceAgreesWithStats(t, ob)
	}
}

// observedGrid is a grid whose observed run has known coordinates: the
// grid's first fork-join job, also when the grid starts with baselines, as a
// serve grid over saws and ours does. run returns the observed cell's
// completed requests (0 outside serve).
type observedGrid struct {
	name string
	want Coord
	run  func(t *testing.T, o Options) (completed uint64)
}

var fig6Grid = observedGrid{"fig6",
	Coord{Experiment: "fig6", Bench: "pfor", Variant: "baseline", N: 64, Workers: 4, Seed: 42},
	func(t *testing.T, o Options) uint64 {
		Fig6(o, "pfor", []int{64, 128})
		return 0
	}}

var serveGrid = observedGrid{"serve",
	Coord{Experiment: "serve", System: "ours", Bench: "poisson", Variant: "always", N: 50, Workers: 18, Seed: 7},
	func(t *testing.T, o Options) uint64 {
		o.Machine, o.Workers, o.Seed = "itoa", 18, 7
		p := tinyServeParams()
		p.Systems = []string{"saws", "ours"}
		rows := Serve(o, p)
		first := rows[len(rows)/2]
		if first.System != "ours" || first.Load != 0.5 {
			t.Fatalf("serve grid's first ours row is %+v", first)
		}
		return first.Completed
	}}

// observe runs g at pool width par and checks that the Observer reports
// the grid's first fork-join job under its own coordinates, with that run's
// metrics registry and no trace.
func observe(t *testing.T, g observedGrid, par int) (*Observer, uint64) {
	t.Helper()
	ob := &Observer{}
	completed := g.run(t, Options{Workers: 4, Scale: -4, Parallel: par, Observer: ob})
	if ob.Coord != g.want {
		t.Errorf("%s -parallel %d: observed %v, want %v", g.name, par, ob.Coord, g.want)
	}
	if ob.Stats.Obs == nil {
		t.Fatalf("%s -parallel %d: no metrics registry from the observed run", g.name, par)
	}
	if ob.Log != nil {
		t.Errorf("%s -parallel %d: a trace was kept without Trace", g.name, par)
	}
	return ob, completed
}

// TestObserverClaimsFirstGridPoint: whatever the pool width, the
// observed run is the grid's first fork-join job, reported under that job's
// own coordinates, so an observed run is deterministic.
func TestObserverClaimsFirstGridPoint(t *testing.T) {
	for _, g := range []observedGrid{fig6Grid, serveGrid} {
		for _, par := range []int{1, 4} {
			observe(t, g, par)
		}
	}
}

// TestServeSojournHistogramCell: the observed serve cell's serve.sojourn
// histogram holds one sample per completed request — the histogram and the
// conservation counter agree.
func TestServeSojournHistogramCell(t *testing.T) {
	for _, par := range []int{1, 4} {
		ob, completed := observe(t, serveGrid, par)
		h, ok := ob.Stats.Obs.Lookup("serve.sojourn")
		if !ok {
			t.Fatalf("-parallel %d: serve.sojourn histogram missing from the observed run", par)
		}
		if h.N != completed {
			t.Errorf("-parallel %d: sojourn histogram has %d samples, cell completed %d", par, h.N, completed)
		}
	}
}
