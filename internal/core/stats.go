package core

import (
	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/uniaddr"
)

// WorkerStats accumulates per-worker scheduler events. All durations are
// virtual time.
type WorkerStats struct {
	Spawns uint64
	Joins  uint64
	Tasks  uint64 // tasks/threads executed to completion on this worker

	StealsOK        uint64
	StealsFail      uint64
	StealLatency    sim.Time // total latency of successful steals
	StealSearchTime sim.Time // total time spent on steal attempts that failed
	StolenBytes     uint64   // payload bytes of stolen tasks (stack or descriptor)
	TaskCopyTime    sim.Time // total time spent copying stolen task payloads
	BusyTime        sim.Time // time spent executing user work (Compute)
	WaitQResumes    uint64   // threads resumed from the wait queue
	JoinFastPath    uint64   // greedy-join die fast paths (parent popped)
	JoinSlowPath    uint64   // greedy-join races (fetch-and-add taken)
	Migrations      uint64   // threads that arrived at this worker
	EntryAllocs     uint64
	StackConflict   uint64 // restores that fell back due to address conflicts
	// SurplusStolen counts entries acquired beyond the first by a StealN
	// batch (steal-half policy) and requeued into the thief's own deque.
	// Always 0 under the default steal-one policy.
	SurplusStolen uint64
}

// JoinStats aggregates outstanding-join accounting across a run.
type JoinStats struct {
	// Outstanding is the number of outstanding joins: joins whose
	// continuation had to suspend because of a steal (§V-B).
	Outstanding uint64
	// OutstandingTime is the total time from a suspended join's
	// continuation becoming resumable (both sides reached the sync point)
	// until it was actually resumed.
	OutstandingTime sim.Time
	// Resumed counts outstanding joins whose continuation ran again.
	Resumed uint64
}

// Sample is one point of the Fig. 7 time series.
type Sample struct {
	T     sim.Time
	Busy  int // workers executing user tasks
	Ready int // outstanding joins that are resumable but not yet resumed
}

// RunStats is the aggregated result of one Runtime.Run, carrying every
// column of Table II plus supporting detail.
type RunStats struct {
	Policy   Policy
	Workers  int
	ExecTime sim.Time

	Work WorkerStats // summed over workers
	Join JoinStats

	Fabric rdma.OpStats
	Mem    remobj.Stats
	Stack  uniaddr.Stats

	// Engine carries the host-side DES engine counters of the run (events
	// dispatched, proc resumptions, completion callbacks) — the split-phase
	// engine's cost model, not a simulated quantity. See sim.EngineStats.
	// InPlace is how many of Engine.Handoffs needed no coroutine switch
	// because the proc was the dispatcher itself (sim.Engine.InPlace), Inline
	// how many because a continuation ran in its stead (sim.Engine.Inline).
	Engine  sim.EngineStats
	InPlace uint64
	Inline  uint64

	// CrossShard is Fabric.InterNode, the remote operations that left
	// their issuer's node.
	//
	// Deprecated: read Fabric.InterNode; kept until benchmark/ stops reading
	// it (ROADMAP item 1).
	CrossShard uint64

	Series []Sample

	// IsoVirtualBytes is the high-water mark of globally unique virtual
	// address space consumed by thread stacks under the iso-address scheme
	// (0 under uni-address) — the §II-D address-consumption comparison.
	IsoVirtualBytes uint64

	// Obs is the merged deterministic metrics registry, non-nil only when
	// Config.Metrics was set. Workers are merged in rank order, so
	// Obs.WriteTSV output is byte-stable across host parallelism levels.
	Obs *obs.Registry
}

// AvgStealLatency returns the mean latency of successful steals.
func (r *RunStats) AvgStealLatency() sim.Time {
	if r.Work.StealsOK == 0 {
		return 0
	}
	return r.Work.StealLatency / sim.Time(r.Work.StealsOK)
}

// AvgStolenBytes returns the mean stolen-task payload size in bytes.
func (r *RunStats) AvgStolenBytes() float64 {
	if r.Work.StealsOK == 0 {
		return 0
	}
	return float64(r.Work.StolenBytes) / float64(r.Work.StealsOK)
}

// AvgTaskCopyTime returns the mean time spent copying a stolen task.
func (r *RunStats) AvgTaskCopyTime() sim.Time {
	if r.Work.StealsOK == 0 {
		return 0
	}
	return r.Work.TaskCopyTime / sim.Time(r.Work.StealsOK)
}

// AvgOutstandingJoinTime returns the mean outstanding-join time.
func (r *RunStats) AvgOutstandingJoinTime() sim.Time {
	if r.Join.Resumed == 0 {
		return 0
	}
	return r.Join.OutstandingTime / sim.Time(r.Join.Resumed)
}

// Efficiency returns parallel efficiency against a given total work T1:
// (T1/P) / ExecTime.
func (r *RunStats) Efficiency(t1 sim.Time) float64 {
	if r.ExecTime == 0 {
		return 0
	}
	ideal := float64(t1) / float64(r.Workers)
	return ideal / float64(r.ExecTime)
}

func (w *WorkerStats) add(o *WorkerStats) {
	w.Spawns += o.Spawns
	w.Joins += o.Joins
	w.Tasks += o.Tasks
	w.StealsOK += o.StealsOK
	w.StealsFail += o.StealsFail
	w.StealLatency += o.StealLatency
	w.StealSearchTime += o.StealSearchTime
	w.StolenBytes += o.StolenBytes
	w.TaskCopyTime += o.TaskCopyTime
	w.BusyTime += o.BusyTime
	w.WaitQResumes += o.WaitQResumes
	w.JoinFastPath += o.JoinFastPath
	w.JoinSlowPath += o.JoinSlowPath
	w.Migrations += o.Migrations
	w.EntryAllocs += o.EntryAllocs
	w.StackConflict += o.StackConflict
	w.SurplusStolen += o.SurplusStolen
}

// joinInfo tracks one in-flight join for outstanding-join accounting. It is
// simulator-side bookkeeping keyed by the thread entry's location; the real
// system would gather the same data from its profiler.
type joinInfo struct {
	suspended bool     // the joining side has suspended at the join
	completed bool     // the joined side has set the flag/count
	readyAt   sim.Time // when both of the above first became true
	ready     bool
	counted   bool // already counted as an outstanding join
}
