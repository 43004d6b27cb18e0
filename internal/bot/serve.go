package bot

import (
	"encoding/binary"

	"contsteal/internal/sim"
)

// Open-system ("serve") mode for the bag-of-tasks baselines: instead of one
// bootstrap root run to distributed termination, timestamped task arrivals
// are injected into worker queues by one batch of engine timers. Completion
// becomes structural — a shared counter of live tasks, maintained by the
// engine's serial event dispatch — so the termination-detection token ring
// is bypassed entirely: an open system is never globally terminated, only
// drained or cut at a horizon.

// ServeArrival is one open-system injection: Task enters Rank's queue at
// virtual time At (as if a front-end had dispatched the request there).
type ServeArrival struct {
	At   sim.Time
	Rank int
	Task Task
}

// Serve switches a BoT runtime into open-system mode (set Config.Serve).
// The root/expand bootstrap arguments of the Run functions are ignored.
// OnTask is invoked after each task is processed, with the number of child
// tasks its expansion produced — the hook the serve harness uses for
// per-request completion accounting. A positive Horizon cuts the run at
// that virtual time instead of draining.
//
// OnTask ordering contract: calls arrive in the engine's serial dispatch
// order, so now is nondecreasing and the full (task, children, now) stream
// is deterministic for a fixed Config. A request's last OnTask call (its
// remaining-node counter reaching zero) is therefore the request's
// completion instant; the serve harness records it as Request.End and then
// sorts completions by (End, ID), so runtimes that finish several requests
// at the same virtual tick still report them in a stable order.
type Serve struct {
	Arrivals []ServeArrival // ascending At
	Horizon  sim.Time       // 0 = run until all injected work drains
	OnTask   func(t Task, children int, now sim.Time)
}

// serveState tracks open-system progress. The engine dispatches one event
// at a time, so plain fields shared across worker procs and timers stay
// deterministic.
type serveState struct {
	sv        *Serve
	remaining int64 // injected + spawned - processed
	allIn     bool  // every arrival timer has fired
	finished  bool  // allIn && remaining == 0
}

// newServeState validates the trace and queues its arrivals before the
// horizon as one engine timer batch (Engine.AtEach); inject places each task
// into its target worker's queue. Arrivals at or after the horizon by
// definition never enter the system.
func newServeState(sv *Serve, eng *sim.Engine, inject func(a ServeArrival)) *serveState {
	live := sv.Arrivals
	for i := 1; i < len(live); i++ {
		if live[i].At < live[i-1].At {
			panic("bot: serve arrivals must be sorted by arrival time")
		}
	}
	for sv.Horizon > 0 && len(live) > 0 && live[len(live)-1].At >= sv.Horizon {
		live = live[:len(live)-1]
	}
	s := &serveState{sv: sv, allIn: len(live) == 0, finished: len(live) == 0}
	ts := make([]sim.Time, len(live))
	for i := range live {
		ts[i] = live[i].At
	}
	eng.AtEach(ts, func(i int) {
		s.remaining++
		s.allIn = i == len(live)-1
		inject(live[i])
	})
	return s
}

// taskDone books one processed task and flips finished once the system has
// drained. children is the size of the task's expansion.
func (s *serveState) taskDone(t Task, children int, now sim.Time) {
	s.remaining += int64(children) - 1
	if s.sv.OnTask != nil {
		s.sv.OnTask(t, children, now)
	}
	if s.allIn && s.remaining == 0 {
		s.finished = true
	}
}

// horizonCut reports whether a still-live engine at time end is the
// expected horizon cut (rather than a livelocked run that must panic).
func (s *serveState) horizonCut(end sim.Time) bool {
	return s != nil && s.sv.Horizon > 0 && end >= s.sv.Horizon
}

// ServeTask encodes one node of a complete fanout-ary request DAG as a BoT
// task: the request ID in Desc[0:8] (little-endian), the fanout in Desc[8],
// and the remaining depth in Task.Depth. Expanding with ServeExpand
// processes exactly 1 + F + … + F^depth tasks per request (the serve
// harness's conservation accounting relies on this).
func ServeTask(id int64, fanout, depth int) Task {
	var t Task
	binary.LittleEndian.PutUint64(t.Desc[0:8], uint64(id))
	t.Desc[8] = byte(fanout)
	t.Depth = int32(depth)
	return t
}

// ServeTaskID recovers the request ID from a ServeTask-encoded task.
func ServeTaskID(t Task) int64 {
	return int64(binary.LittleEndian.Uint64(t.Desc[0:8]))
}

// ServeExpand is the Expand function for ServeTask DAGs: an interior node
// yields fanout children one level shallower; a leaf yields none.
func ServeExpand(t Task) []Task {
	if t.Depth <= 0 {
		return nil
	}
	fanout := int(t.Desc[8])
	out := make([]Task, fanout)
	for i := range out {
		out[i] = t
		out[i].Depth = t.Depth - 1
	}
	return out
}

// serveUntil returns the engine horizon of a run: MaxTime, or the serve
// horizon when one is set and tighter.
func serveUntil(cfg Config) sim.Time {
	until := cfg.MaxTime
	if cfg.Serve != nil && cfg.Serve.Horizon > 0 && cfg.Serve.Horizon < until {
		until = cfg.Serve.Horizon
	}
	return until
}
