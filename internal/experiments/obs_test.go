package experiments

import (
	"testing"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// checkTraceAgreesWithStats asserts the tentpole invariants on a collected
// run: the trace-derived busy time and steal latency reproduce the stats
// counters to the tick, and the full Verify cross-check passes.
func checkTraceAgreesWithStats(t *testing.T, oc *ObsCollector) {
	t.Helper()
	if !oc.Done || oc.Log == nil {
		t.Fatal("collector did not capture a trace")
	}
	var busy sim.Time
	for _, a := range oc.Log.Attribution() {
		busy += a.Busy
	}
	if busy != oc.Stats.Work.BusyTime {
		t.Errorf("%v: trace busy %d != stats busy %d",
			oc.Coord, int64(busy), int64(oc.Stats.Work.BusyTime))
	}
	var stealLat sim.Time
	for _, e := range oc.Log.Events {
		if e.Kind == obs.KindSteal {
			stealLat += e.Dur
		}
	}
	if stealLat != oc.Stats.Work.StealLatency {
		t.Errorf("%v: trace steal latency %d != stats %d",
			oc.Coord, int64(stealLat), int64(oc.Stats.Work.StealLatency))
	}
	if err := oc.Log.Verify(); err != nil {
		t.Errorf("%v: %v", oc.Coord, err)
	}
}

func TestFig6TraceStatsAgreement(t *testing.T) {
	for _, par := range []int{1, 8} {
		oc := &ObsCollector{Trace: true, Metrics: true}
		o := Options{Workers: 8, Scale: -4, Parallel: par, Obs: oc}
		Fig6(o, "recpfor", []int{64})
		checkTraceAgreesWithStats(t, oc)
		if oc.Stats.Obs == nil {
			t.Error("metrics registry not collected")
		}
	}
}

func TestFig9TraceStatsAgreement(t *testing.T) {
	for _, par := range []int{1, 8} {
		oc := &ObsCollector{Trace: true}
		o := Options{Workers: 6, Parallel: par, Obs: oc}
		Fig9(o, "T1WL", []int{6}, 12)
		checkTraceAgreesWithStats(t, oc)
	}
}

func TestObsCollectorClaimsFirstGridPoint(t *testing.T) {
	// Regardless of pool parallelism the collector must capture the same
	// (first) grid point, so -trace output is deterministic.
	var coords []Coord
	for _, par := range []int{1, 4} {
		oc := &ObsCollector{Trace: true}
		o := Options{Workers: 4, Scale: -4, Parallel: par, Obs: oc}
		Fig6(o, "pfor", []int{64, 128})
		if !oc.Done {
			t.Fatal("collector not filled")
		}
		coords = append(coords, oc.Coord)
	}
	if coords[0] != coords[1] {
		t.Errorf("claimed grid point depends on parallelism: %v vs %v", coords[0], coords[1])
	}
}
