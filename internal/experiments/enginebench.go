// The enginebench experiment: host-side throughput of the concurrent
// sharded DES engine (sim.Sharded) under both window policies. Unlike every
// other experiment — which measures *simulated* quantities — this one
// measures the simulator itself: how fast the host dispatches events when
// the event heaps are split across shard goroutines, and what the adaptive
// per-shard-pair lookahead windows buy over the uniform lock-step window.
//
// The grid is workload × mode × shard count, run strictly sequentially
// (never on the sweep pool) so each cell's wall time is an uncontended
// measurement. The structured rows carry only deterministic quantities
// (events, rounds, routed) — byte-identical at any host parallelism, any
// GOMAXPROCS, and independent of the runner's own -shards knob — while the
// wall-clock throughput and the adaptive/lock-step speedups surface in
// Summary(), which feeds the BENCH artifact alongside its GoMaxProcs field.

package experiments

import (
	"fmt"
	"runtime"
	"time"

	"contsteal/internal/core"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// engineBenchShards is the shard ladder every workload runs at.
var engineBenchShards = []int{1, 2, 4}

// engineBenchProcs is the number of logical actors of each workload. They
// are mapped onto shards in contiguous blocks (actor j on shard
// j*shards/4), so the same program runs unchanged at every shard count.
const engineBenchProcs = 4

// EngineBenchRow is one cell of the grid. Events, Rounds and Routed are
// deterministic functions of (workload, mode, shards); Wall and the derived
// events/sec are host measurements and never reach Series or Rows.
type EngineBenchRow struct {
	Machine  string `json:"machine"`
	Workload string `json:"workload"` // steady / stream
	Mode     string `json:"mode"`     // adaptive / lockstep
	Shards   int    `json:"shards"`
	Events   uint64 `json:"events"`
	Rounds   uint64 `json:"rounds"`
	Routed   uint64 `json:"routed"`

	wall time.Duration
}

// engineBenchCell builds the sharded group for one cell: actors mapped in
// contiguous blocks over a two-node slice of the machine, per-pair
// lookaheads from topo.PairLookahead, and the requested window policy.
//
// The two-node slice is deliberate: at shards=4 each node is split across
// two shards, so neighbouring shards see only the intra-node lookahead
// while cross-node shard pairs keep the full inter-node window — the
// heterogeneous matrix the adaptive policy exploits and the uniform
// lock-step window cannot (it must run at the global minimum).
func engineBenchCell(m *topo.Machine, shards int, lockstep bool) (*sim.Sharded, func(j int) int, func(a, b int) sim.Time) {
	ranks := 2 * m.CoresPerNode
	shardOf := func(j int) int { return j * shards / engineBenchProcs }
	rankOf := func(j int) int { return j * ranks / engineBenchProcs }
	delay := func(a, b int) sim.Time { return m.MinLatency(rankOf(a), rankOf(b)) }

	s := sim.NewSharded(shards, m.MinCrossNodeLatency())
	if shards > 1 {
		look := m.PairLookahead(ranks, shards)
		for src := 0; src < shards; src++ {
			for dst := 0; dst < shards; dst++ {
				if src != dst {
					s.SetPairLookahead(src, dst, look[src][dst])
				}
			}
		}
	}
	s.SetLockStep(lockstep)
	return s, shardOf, delay
}

// engineBenchSteady is the dense symmetric workload: every actor busy at
// every tick, ring routing at the pair latency. All shards stay
// simultaneously loaded, so the direct-predecessor window bound dominates
// and adaptive ≈ lock-step — the no-regression baseline of the grid.
func engineBenchSteady(s *sim.Sharded, shardOf func(int) int, delay func(a, b int) sim.Time, steps int) {
	for j := 0; j < engineBenchProcs; j++ {
		j := j
		dst := (j + 1) % engineBenchProcs
		d := delay(j, dst)
		s.Go(shardOf(j), fmt.Sprintf("steady%d", j), func(p *sim.Proc) {
			// Stagger the actors onto distinct tick residues: same-tick
			// cross-actor ties would make every heap comparison a lineage
			// walk to the root, turning a single-heap run quadratic.
			p.Sleep(sim.Time(j + 1))
			for i := 0; i < steps; i++ {
				p.Sleep(engineBenchProcs)
				if i%8 == 0 {
					s.RouteAfter(shardOf(j), shardOf(dst), d, func() {})
				}
			}
		})
	}
}

// engineBenchStream is the scatter-then-compute workload: one producer on
// the first node streams a dense burst of messages to the two far-node
// sinks, then settles into a long phase of sparse local work (one event per
// kilotick). The sinks drain the burst and go permanently idle; an empty
// shard advertises nothing, so the producer's only remaining window is its
// own minimum routing round-trip (an event routed mid-window could boomerang
// back through a neighbour at the next two barriers). That round-trip is
// twice the global minimum pair window the lock-step policy must barrier at,
// so the adaptive tail runs in half the rounds — the round overhead is what
// dominates this cell.
func engineBenchStream(s *sim.Sharded, shardOf func(int) int, delay func(a, b int) sim.Time, steps int) {
	s.Go(shardOf(0), "producer", func(p *sim.Proc) {
		for i := 0; i < steps/4; i++ { // scatter burst to the far node
			p.Sleep(4)
			dst := 2 + i%2
			s.RouteAfter(shardOf(0), shardOf(dst), delay(0, dst), func() {})
		}
		for i := 0; i < steps; i++ { // sparse local compute tail
			p.Sleep(1000)
		}
	})
}

// EngineBenchLayout renders the grid. Table, Series and Rows expose only the
// deterministic columns; host wall-clock appears solely in Summary.
var EngineBenchLayout = Layout[EngineBenchRow]{
	Section: func(r []EngineBenchRow) string { return "enginebench_" + r[0].Machine },
	Title: func(r []EngineBenchRow) string {
		return "Engine bench: sharded-window rounds and traffic on " + r[0].Machine
	},
	Table:   engineBenchCols,
	TSV:     engineBenchCols,
	Summary: engineBenchSummary,
}

var engineBenchCols = []Col[EngineBenchRow]{
	{"workload", "%s", func(r EngineBenchRow) any { return r.Workload }},
	{"mode", "%s", func(r EngineBenchRow) any { return r.Mode }},
	{"shards", "%d", func(r EngineBenchRow) any { return r.Shards }},
	{"events", "%d", func(r EngineBenchRow) any { return r.Events }},
	{"rounds", "%d", func(r EngineBenchRow) any { return r.Rounds }},
	{"routed", "%d", func(r EngineBenchRow) any { return r.Routed }},
}

// engineBenchSummary reports the host-side headline: GOMAXPROCS at run time,
// the peak events/sec any cell sustained, and per-workload
// adaptive-over-lock-step wall-clock speedups at the widest shard count
// (event counts are identical across modes, so the wall ratio is the
// events/sec ratio).
func engineBenchSummary(r []EngineBenchRow) map[string]float64 {
	out := map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
	maxShards := 0
	wall := map[string]time.Duration{}
	var peak float64
	for _, row := range r {
		if row.Shards > maxShards {
			maxShards = row.Shards
		}
		if row.wall > 0 {
			if eps := float64(row.Events) / row.wall.Seconds(); eps > peak {
				peak = eps
			}
		}
		wall[fmt.Sprintf("%s/%s/%d", row.Workload, row.Mode, row.Shards)] = row.wall
	}
	out["peak_events_per_sec"] = peak
	for _, workload := range []string{"steady", "stream"} {
		a := wall[fmt.Sprintf("%s/adaptive/%d", workload, maxShards)]
		l := wall[fmt.Sprintf("%s/lockstep/%d", workload, maxShards)]
		if a > 0 && l > 0 {
			out[fmt.Sprintf("%s_adaptive_speedup_shards%d", workload, maxShards)] =
				float64(l) / float64(a)
		}
	}
	return out
}

// EngineBench runs the full grid and returns one row per cell, in grid
// order. Event counts are asserted identical across modes and shard counts
// of each workload (the engine contract differential tests pin byte-level
// equivalence; this guards the benchmark's own comparability).
func EngineBench(o Options) []EngineBenchRow {
	o.defaults(0)
	m := MachineByName(o.Machine)
	steadySteps, streamSteps := 6000, 4000
	for i := 0; i < o.Scale; i++ {
		steadySteps *= 2
		streamSteps *= 2
	}

	workloads := []struct {
		name  string
		steps int
		build func(*sim.Sharded, func(int) int, func(a, b int) sim.Time, int)
	}{
		{"steady", steadySteps, engineBenchSteady},
		{"stream", streamSteps, engineBenchStream},
	}

	var rows []EngineBenchRow
	for _, wl := range workloads {
		var events uint64
		for _, shards := range engineBenchShards {
			for _, mode := range []string{"adaptive", "lockstep"} {
				s, shardOf, delay := engineBenchCell(m, shards, mode == "lockstep")
				wl.build(s, shardOf, delay, wl.steps)
				start := time.Now()
				s.Run(sim.Forever)
				wall := time.Since(start)
				st := s.Stats()
				row := EngineBenchRow{
					Machine: m.Name, Workload: wl.name, Mode: mode, Shards: shards,
					Events: st.Events, Rounds: s.Rounds(), Routed: s.Routed(),
					wall: wall,
				}
				s.Shutdown()
				if events == 0 {
					events = row.Events
				} else if row.Events != events {
					panic(fmt.Sprintf("experiments: enginebench %s %s shards=%d dispatched %d events, first cell %d — sharding changed the program",
						wl.name, mode, shards, row.Events, events))
				}
				rows = append(rows, row)
				reportEngine(Coord{Experiment: "enginebench", Variant: wl.name + "/" + mode, Workers: shards, Seed: o.Seed},
					core.RunStats{Engine: st, CrossShard: row.Routed}, wall)
			}
		}
	}
	return rows
}
