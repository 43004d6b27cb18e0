package main

// Metric kinds. Host numbers are what the simulator costs to run and carry
// this sandbox's noise; simulated numbers and counts are what the modelled
// cluster does and repeat exactly for one seed.
const (
	kindHost      = "host"      // host seconds, bytes or rates over cold repeats
	kindSimulated = "simulated" // virtual time or a ratio of virtual times
	kindCount     = "count"     // work done by a layer, from the run's public stats
	kindUnitCost  = "unit-cost" // host ns per operation from a micro-driver
	kindSpan      = "span"      // host seconds between two of the benchmark's own calls
	kindRatio     = "ratio"     // derived from the above
)

// e2eMetric is one end-to-end metric. Bound is the share of the reference
// median by which the metric may worsen before it counts as a regression, and
// the agreement bound between two sets of runs of the same code.
//
// The bounds are sized from measurement on the 2-vCPU shared sandbox this
// was written on (README.md, "End-to-end metrics", has the numbers):
//
//   - host times: neighbours slow this VM for minutes on end — memory-bound
//     code by up to 2.4×, in other stretches compute by 1.3–2× — with no
//     steal accounted, so a host metric's value is the best of its repeats
//     (parent.go, endToEnd). 10 % would still reject the same commit against
//     itself in a bad hour; 24 % does not, and is just under setup_s's 25 %,
//     which has to be the largest.
//   - alloc_mb repeats to 0.1 % at one seed, but the seed changes the dag and
//     serve inputs, and with them the allocation volume, by up to 8.5 %.
//   - simulated metrics are exact at one seed, and -compare holds them to 0
//     when both sides ran the same seed. Across seeds sim_exec_ms spreads up
//     to 3.5 % (dag_halfsteal) and sim_efficiency up to 9.8 % (serve_open's
//     saturated cell).
type e2eMetric struct {
	Name, Unit, Better, Kind string
	Bound                    float64
	// Only names the one workload the metric is defined on; "" means all.
	// BENCHMARK.json wants every end-to-end metric on every workload, so it
	// lists only the latter; the others are printed, recorded in results.json
	// and compared by -compare, and their inputs sit in the digest.
	Only string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", kindHost, 0.25, ""},
	{"wall_s", "s", "lower", kindHost, 0.24, ""},
	{"tasks_per_host_s", "1/s", "higher", kindHost, 0.24, ""},
	{"alloc_mb", "MiB", "lower", kindHost, 0.15, ""},
	{"sim_exec_ms", "ms", "lower", kindSimulated, 0.12, ""},
	{"sim_efficiency", "ratio", "higher", kindSimulated, 0.24, ""},
	{"sim_p99_sojourn_us", "us", "lower", kindSimulated, 0.24, "serve_open"},
	{"sim_goodput_rps", "1/s", "higher", kindSimulated, 0.24, "serve_open"},
}

// move is a prediction: the layer metric should move this end-to-end metric
// on this workload; everywhere else the prediction is no change.
type move struct{ Metric, Workload string }

// layerMetric is one per-layer metric, named <module>.<metric> after the
// internal/ package it measures.
type layerMetric struct {
	Name, Unit, Better, Kind string
	Moves                    []move
}

func mv(pairs ...string) []move {
	out := make([]move, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, move{pairs[i], pairs[i+1]})
	}
	return out
}

var (
	movesHandoff  = mv("wall_s", "uts_fig9")
	movesDagWall  = mv("wall_s", "dag_halfsteal")
	movesDagBoth  = mv("wall_s", "dag_halfsteal", "sim_exec_ms", "dag_halfsteal")
	movesServe    = mv("wall_s", "serve_open")
	movesServeObs = mv("wall_s", "serve_open", "alloc_mb", "serve_open")
	movesAlloc    = mv("alloc_mb", "uts_fig9", "alloc_mb", "dag_halfsteal", "alloc_mb", "serve_open", "alloc_mb", "uts_shards2")
	movesTasks    = mv("tasks_per_host_s", "uts_fig9", "tasks_per_host_s", "dag_halfsteal", "tasks_per_host_s", "serve_open", "tasks_per_host_s", "uts_shards2")
	movesCoreWall = mv("wall_s", "uts_fig9", "wall_s", "dag_halfsteal", "wall_s", "serve_open", "wall_s", "uts_shards2")
	movesCoreNew  = mv("wall_s", "uts_shards2", "wall_s", "dag_halfsteal", "alloc_mb", "uts_shards2", "alloc_mb", "dag_halfsteal")
)

var layerMetrics = []layerMetric{
	{"sim.events", "count", "lower", kindCount, mv("wall_s", "uts_fig9", "wall_s", "dag_halfsteal", "wall_s", "uts_shards2")},
	{"sim.handoffs", "count", "lower", kindCount, movesHandoff},
	{"sim.callbacks", "count", "lower", kindCount, movesDagWall},
	{"sim.cross_shard", "count", "lower", kindCount, mv("wall_s", "uts_shards2")},
	{"sim.events_per_s", "1/s", "higher", kindHost, movesHandoff},
	{"sim.handoff_ns", "ns", "lower", kindUnitCost, movesHandoff},
	{"sim.sleep_ns", "ns", "lower", kindUnitCost, movesHandoff},
	{"sim.callback_ns", "ns", "lower", kindUnitCost, movesHandoff},
	{"sim.chain5_ns", "ns", "lower", kindUnitCost, movesHandoff},
	{"sim.handoff_share", "ratio", "lower", kindRatio, movesHandoff},
	{"sim.callback_share", "ratio", "lower", kindRatio, movesHandoff},
	{"sim.sharded_event_ns", "ns", "lower", kindUnitCost, mv("wall_s", "uts_shards2")},

	{"rdma.gets", "count", "lower", kindCount, movesDagWall},
	{"rdma.puts", "count", "lower", kindCount, movesDagWall},
	{"rdma.atomics", "count", "lower", kindCount, movesDagWall},
	{"rdma.local_ops", "count", "lower", kindCount, movesDagWall},
	{"rdma.bytes_in", "count", "lower", kindCount, movesDagWall},
	{"rdma.remote_time_ms", "ms", "lower", kindSimulated, mv("sim_exec_ms", "dag_halfsteal")},
	{"rdma.get_ns", "ns", "lower", kindUnitCost, movesDagWall},
	{"rdma.fetchadd_ns", "ns", "lower", kindUnitCost, movesDagWall},

	{"deque.steals_ok", "count", "lower", kindCount, movesDagBoth},
	{"deque.steals_fail", "count", "lower", kindCount, movesDagBoth},
	{"deque.surplus_stolen", "count", "lower", kindCount, movesDagBoth},
	{"deque.steal_success_ratio", "ratio", "higher", kindRatio, mv("sim_exec_ms", "dag_halfsteal", "sim_exec_ms", "serve_open")},
	{"deque.pushpop_ns", "ns", "lower", kindUnitCost, movesDagWall},
	{"deque.steal_ns", "ns", "lower", kindUnitCost, movesDagWall},
	{"deque.stealn_ns", "ns", "lower", kindUnitCost, movesDagWall},

	{"uniaddr.migrations_in", "count", "lower", kindCount, movesDagWall},
	{"uniaddr.evacuations", "count", "lower", kindCount, movesDagWall},
	{"uniaddr.bytes_moved", "count", "lower", kindCount, movesDagWall},
	{"uniaddr.conflicts", "count", "lower", kindCount, movesDagWall},
	{"uniaddr.evac_restore_ns", "ns", "lower", kindUnitCost, movesDagWall},
	{"uniaddr.migrate_ns", "ns", "lower", kindUnitCost, movesDagWall},

	{"remobj.allocs", "count", "lower", kindCount, movesDagWall},
	{"remobj.remote_frees", "count", "lower", kindCount, movesDagWall},
	{"remobj.sweeps", "count", "lower", kindCount, movesDagWall},
	{"remobj.alloc_free_ns", "ns", "lower", kindUnitCost, movesDagWall},

	{"msg.handled", "count", "lower", kindCount, movesServe},
	{"msg.retransmits", "count", "lower", kindCount, movesServe},
	{"msg.send_poll_ns", "ns", "lower", kindUnitCost, movesServe},

	{"core.tasks", "count", "lower", kindCount, movesTasks},
	{"core.spawns", "count", "lower", kindCount, movesTasks},
	{"core.outstanding_joins", "count", "lower", kindCount, movesTasks},
	{"core.new_s", "s", "lower", kindSpan, movesCoreNew},
	{"core.run_s", "s", "lower", kindSpan, movesCoreNew},
	{"core.task_ns", "ns", "lower", kindUnitCost, movesCoreWall},

	{"bot.run_s", "s", "lower", kindSpan, movesServe},

	{"workload.cold_cell_s", "s", "lower", kindSpan, movesHandoff},
	{"workload.warm_cell_s", "s", "lower", kindSpan, movesHandoff},
	{"workload.uts_node_ns", "ns", "lower", kindUnitCost, mv("wall_s", "uts_fig9", "setup_s", "uts_fig9")},
	{"workload.gen_s", "s", "lower", kindSpan, mv("setup_s", "serve_open")},

	{"obs.events", "count", "lower", kindCount, movesServeObs},
	{"obs.verify_s", "s", "lower", kindSpan, movesServe},
	{"obs.attribution_s", "s", "lower", kindSpan, movesServe},
	{"obs.record_ns", "ns", "lower", kindUnitCost, movesServe},
	{"obs.hist_observe_ns", "ns", "lower", kindUnitCost, movesServe},
	{"obs.trace_overhead_frac", "ratio", "lower", kindRatio, movesServe},

	{"topo.opdelay_ns", "ns", "lower", kindUnitCost, movesDagWall},

	{"host.peak_rss_mb", "MiB", "lower", kindHost, movesAlloc},
	{"host.cpu_s", "s", "lower", kindHost, mv("wall_s", "uts_shards2")},
	{"host.mallocs", "count", "lower", kindHost, movesAlloc},
	{"host.gc_count", "count", "lower", kindHost, movesAlloc},
	{"host.wall_p2_s", "s", "lower", kindHost, mv("wall_s", "uts_shards2")},
}
