package experiments

import (
	"sync"

	"contsteal/internal/core"
)

// ObsCollector requests observability output (an event trace and/or the
// metrics registry) from one simulated run of an experiment sweep. Sweeps
// construct their job grids sequentially before the worker pool starts, and
// the first constructed job claims the collector — so it is always the
// first grid point of the invocation that gets traced, deterministically,
// regardless of Options.Parallel. The manifest Runner gives every entry one
// (the run folder's metrics/<id>.tsv and trace/<id>.json).
type ObsCollector struct {
	Trace   bool // record the full event trace
	Metrics bool // build the deterministic metrics registry

	mu      sync.Mutex
	claimed bool

	// Results of the claimed run, valid once Done is true (after the sweep
	// returns; pool workers fill them under mu).
	Coord Coord
	Log   *core.Trace
	Stats core.RunStats
	Done  bool
}

// claim marks the collector as owned by the caller. The first caller wins;
// sweeps call it at job-construction time (sequential), direct runners
// (e.g. a single UTSOnce) at run time.
func (oc *ObsCollector) claim() bool {
	if oc == nil {
		return false
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.claimed {
		return false
	}
	oc.claimed = true
	return true
}

// apply arms cfg with the collector's requested outputs.
func (oc *ObsCollector) apply(cfg *core.Config) {
	cfg.Trace = cfg.Trace || oc.Trace
	cfg.Metrics = cfg.Metrics || oc.Metrics
}

// deliver stores the claimed run's outputs.
func (oc *ObsCollector) deliver(c Coord, rt *core.Runtime, st core.RunStats) {
	oc.mu.Lock()
	oc.Coord = c
	oc.Log = rt.TraceLog()
	oc.Stats = st
	oc.Done = true
	oc.mu.Unlock()
}
