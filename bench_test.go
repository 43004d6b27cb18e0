package contsteal

// Benchmarks: one per table and figure of the paper's evaluation (§V), plus
// ablations of the design choices DESIGN.md calls out. Each benchmark runs
// a reduced-scale instance of the corresponding experiment and reports the
// *virtual* cluster metrics (exec time, efficiency, throughput) alongside
// the host-side ns/op. cmd/repro runs the same experiments at full default
// scale with table output.
//
// Custom metrics:
//
//	vtime-ms     simulated cluster execution time per run
//	efficiency   parallel efficiency vs the modelled ideal
//	Mnodes/s     UTS throughput in simulated time
import (
	"fmt"
	"testing"

	"contsteal/internal/bot"
	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/workload"
)

const benchWorkers = 36 // one ITO-A-like node

func benchCfg(policy core.Policy, free remobj.Strategy) core.Config {
	return core.Config{
		Machine:    experiments.MachineByName("itoa"),
		Workers:    benchWorkers,
		Policy:     policy,
		RemoteFree: free,
		Seed:       42,
		MaxTime:    600 * sim.Second,
	}
}

// ---------------------------------------------------------------------------
// Fig. 6 — PFor / RecPFor parallel efficiency per scheduler variant
// ---------------------------------------------------------------------------

func benchFig6(b *testing.B, bench string, v experiments.Variant) {
	n := 1 << 10
	if bench == "recpfor" {
		n = 1 << 8
	}
	p := workload.DefaultPForParams(n)
	task, t1 := workload.PFor(p), p.T1PFor()
	if bench == "recpfor" {
		task, t1 = workload.RecPFor(p), p.T1RecPFor()
	}
	mach := experiments.MachineByName("itoa")
	var last core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.New(benchCfg(v.Policy, v.Free))
		_, last = rt.Run(task)
	}
	b.ReportMetric(last.ExecTime.Seconds()*1e3, "vtime-ms")
	b.ReportMetric(last.Efficiency(mach.Compute(t1)), "efficiency")
}

func BenchmarkFig6PForBaseline(b *testing.B) {
	benchFig6(b, "pfor", experiments.Variant{Policy: core.ContStalling, Free: remobj.LockQueue})
}

func BenchmarkFig6PForLocalCollect(b *testing.B) {
	benchFig6(b, "pfor", experiments.Variant{Policy: core.ContStalling, Free: remobj.LocalCollection})
}

func BenchmarkFig6PForGreedy(b *testing.B) {
	benchFig6(b, "pfor", experiments.Variant{Policy: core.ContGreedy, Free: remobj.LocalCollection})
}

func BenchmarkFig6PForChildFull(b *testing.B) {
	benchFig6(b, "pfor", experiments.Variant{Policy: core.ChildFull, Free: remobj.LocalCollection})
}

func BenchmarkFig6PForChildRtC(b *testing.B) {
	benchFig6(b, "pfor", experiments.Variant{Policy: core.ChildRtC, Free: remobj.LocalCollection})
}

func BenchmarkFig6RecPForBaseline(b *testing.B) {
	benchFig6(b, "recpfor", experiments.Variant{Policy: core.ContStalling, Free: remobj.LockQueue})
}

func BenchmarkFig6RecPForLocalCollect(b *testing.B) {
	benchFig6(b, "recpfor", experiments.Variant{Policy: core.ContStalling, Free: remobj.LocalCollection})
}

func BenchmarkFig6RecPForGreedy(b *testing.B) {
	benchFig6(b, "recpfor", experiments.Variant{Policy: core.ContGreedy, Free: remobj.LocalCollection})
}

func BenchmarkFig6RecPForChildFull(b *testing.B) {
	benchFig6(b, "recpfor", experiments.Variant{Policy: core.ChildFull, Free: remobj.LocalCollection})
}

func BenchmarkFig6RecPForChildRtC(b *testing.B) {
	benchFig6(b, "recpfor", experiments.Variant{Policy: core.ChildRtC, Free: remobj.LocalCollection})
}

// ---------------------------------------------------------------------------
// Table II — join/steal statistics (the full profiled run)
// ---------------------------------------------------------------------------

func BenchmarkTable2RecPForProfile(b *testing.B) {
	var rows []experiments.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(experiments.Options{Workers: benchWorkers, Seed: 42}, "recpfor", 1<<9)
	}
	for _, r := range rows {
		if r.Variant == "cont-greedy" {
			b.ReportMetric(float64(r.AvgStealLatency), "steal-lat-ns")
			b.ReportMetric(float64(r.OutstandingJoins), "outst-joins")
		}
	}
}

// ---------------------------------------------------------------------------
// Fig. 7 — sampled time series
// ---------------------------------------------------------------------------

func BenchmarkFig7TimeSeries(b *testing.B) {
	var res experiments.Fig7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Fig7(experiments.Options{Workers: benchWorkers, Seed: 42}, 1<<9)
	}
	b.ReportMetric(float64(len(res.ContGreedy)+len(res.ChildFull)), "samples")
}

// ---------------------------------------------------------------------------
// Fig. 8 — UTS throughput, four systems
// ---------------------------------------------------------------------------

func benchUTS(b *testing.B, system string) {
	var row experiments.Fig8Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = experiments.UTSOnce(experiments.Options{Seed: 42}, system, "T1L", benchWorkers, 5)
	}
	b.ReportMetric(row.Throughput/1e6, "Mnodes/s")
	b.ReportMetric(row.Efficiency, "efficiency")
}

func BenchmarkFig8UTSOurs(b *testing.B)  { benchUTS(b, "ours") }
func BenchmarkFig8UTSSAWS(b *testing.B)  { benchUTS(b, "saws") }
func BenchmarkFig8UTSCharm(b *testing.B) { benchUTS(b, "charm") }
func BenchmarkFig8UTSGLB(b *testing.B)   { benchUTS(b, "glb") }

// ---------------------------------------------------------------------------
// Fig. 9 — UTS strong scaling of our runtime on the WISTERIA-O model
// ---------------------------------------------------------------------------

func BenchmarkFig9UTSScaling(b *testing.B) {
	var row experiments.Fig8Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = experiments.UTSOnce(experiments.Options{Machine: "wisteria", Seed: 42},
			"ours", "T1XXL", 192, 5)
	}
	b.ReportMetric(row.Throughput/1e6, "Mnodes/s")
	b.ReportMetric(row.Efficiency, "efficiency")
}

// ---------------------------------------------------------------------------
// Table III — LCS under the three schedulers
// ---------------------------------------------------------------------------

func benchLCS(b *testing.B, policy core.Policy) {
	p := workload.DefaultLCSParams(1 << 13)
	cfg := benchCfg(policy, remobj.LocalCollection)
	cfg.RetvalBytes = p.RetvalBytes()
	var st core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.New(cfg)
		_, st = rt.Run(workload.LCS(p))
	}
	b.ReportMetric(st.ExecTime.Seconds()*1e3, "vtime-ms")
}

func BenchmarkTable3LCSGreedy(b *testing.B)   { benchLCS(b, core.ContGreedy) }
func BenchmarkTable3LCSStalling(b *testing.B) { benchLCS(b, core.ContStalling) }
func BenchmarkTable3LCSChildFull(b *testing.B) {
	if testing.Short() {
		b.Skip("child stealing on LCS is intentionally pathological (Table III)")
	}
	benchLCS(b, core.ChildFull)
}

// ---------------------------------------------------------------------------
// Fig. 12 — LCS against the greedy-scheduling-theorem band
// ---------------------------------------------------------------------------

func BenchmarkFig12LCSBounds(b *testing.B) {
	var rows []experiments.Fig12Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig12(experiments.Options{Workers: benchWorkers, Seed: 42},
			[]int{1 << 13}, []int{benchWorkers})
	}
	r := rows[0]
	b.ReportMetric(r.ExecTime.Seconds()*1e3, "vtime-ms")
	b.ReportMetric(float64(r.UpperBound)/float64(r.ExecTime), "upper/exec")
}

// ---------------------------------------------------------------------------
// Parallel sweeps — the fig9-style grid on the bounded host worker pool
// ---------------------------------------------------------------------------

// benchSweepFig9 runs a 4-point worker-count sweep (independent jobs) with
// the given host pool width. Comparing Parallel1 with Parallel4 on a
// multi-core host measures the sweep runner's wall-clock speedup; rows are
// identical in both (asserted by TestSweepDeterministicUnderParallelism).
func benchSweepFig9(b *testing.B, parallel int) {
	var rows []experiments.Fig8Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(experiments.Options{Seed: 42, Parallel: parallel},
			"T1L", []int{9, 18, 36, 72}, 6)
	}
	b.ReportMetric(float64(len(rows)), "jobs")
}

func BenchmarkSweepFig9Parallel1(b *testing.B) { benchSweepFig9(b, 1) }
func BenchmarkSweepFig9Parallel4(b *testing.B) { benchSweepFig9(b, 4) }

// ---------------------------------------------------------------------------
// Ablations — design choices called out in DESIGN.md
// ---------------------------------------------------------------------------

// Remote-object freeing: lock queue vs local collection (§III-B).
func benchAblationFree(b *testing.B, free remobj.Strategy) {
	p := workload.DefaultPForParams(1 << 10)
	var st core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.New(benchCfg(core.ContStalling, free))
		_, st = rt.Run(workload.PFor(p))
	}
	b.ReportMetric(st.ExecTime.Seconds()*1e3, "vtime-ms")
}

func BenchmarkAblationFreeLockQueue(b *testing.B) { benchAblationFree(b, remobj.LockQueue) }
func BenchmarkAblationFreeLocalCollection(b *testing.B) {
	benchAblationFree(b, remobj.LocalCollection)
}

// Steal-half vs steal-one in the BoT runtime.
func benchAblationStealBatch(b *testing.B, max int) {
	tree := workload.T1LPrime()
	rootNode := tree.Root()
	var root bot.Task
	copy(root.Desc[:], rootNode.Desc[:])
	expand := func(t bot.Task) []bot.Task {
		n := workload.UTSNode{Depth: int(t.Depth)}
		copy(n.Desc[:], t.Desc[:])
		nc := tree.NumChildren(n)
		out := make([]bot.Task, nc)
		for i := 0; i < nc; i++ {
			ch := tree.Child(n, i)
			copy(out[i].Desc[:], ch.Desc[:])
			out[i].Depth = int32(ch.Depth)
		}
		return out
	}
	cfg := bot.Config{
		Machine:      experiments.MachineByName("itoa"),
		Workers:      benchWorkers,
		Seed:         42,
		Work:         190,
		StealHalfMax: max,
		MaxTime:      600 * sim.Second,
	}
	var st bot.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = bot.RunSAWS(cfg, root, expand)
	}
	b.ReportMetric(st.Throughput()/1e6, "Mnodes/s")
	b.ReportMetric(float64(st.StealsOK), "steals")
}

func BenchmarkAblationStealHalf(b *testing.B) { benchAblationStealBatch(b, 1024) }
func BenchmarkAblationStealOne(b *testing.B)  { benchAblationStealBatch(b, 1) }

// Lifeline fan-out in the GLB runtime: hypercube vs single lifeline.
func benchAblationLifelines(b *testing.B, lifelines int) {
	tree := workload.T1LPrime()
	rootNode := tree.Root()
	var root bot.Task
	copy(root.Desc[:], rootNode.Desc[:])
	expand := func(t bot.Task) []bot.Task {
		n := workload.UTSNode{Depth: int(t.Depth)}
		copy(n.Desc[:], t.Desc[:])
		nc := tree.NumChildren(n)
		out := make([]bot.Task, nc)
		for i := 0; i < nc; i++ {
			ch := tree.Child(n, i)
			copy(out[i].Desc[:], ch.Desc[:])
			out[i].Depth = int32(ch.Depth)
		}
		return out
	}
	cfg := bot.Config{
		Machine:   experiments.MachineByName("itoa"),
		Workers:   benchWorkers,
		Seed:      42,
		Work:      190,
		Lifelines: lifelines,
		MaxTime:   600 * sim.Second,
	}
	var st bot.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = bot.RunGLB(cfg, root, expand)
	}
	b.ReportMetric(st.Throughput()/1e6, "Mnodes/s")
}

func BenchmarkAblationLifelineHypercube(b *testing.B) { benchAblationLifelines(b, 0) }
func BenchmarkAblationLifelineSingle(b *testing.B)    { benchAblationLifelines(b, 1) }

// UTS task granularity: per-node tasks vs serialized bottom levels.
func benchAblationSeqDepth(b *testing.B, depth int) {
	var row experiments.Fig8Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = experiments.UTSOnce(experiments.Options{Seed: 42}, "ours", "T1L", benchWorkers, depth)
	}
	b.ReportMetric(row.Efficiency, "efficiency")
}

func BenchmarkAblationUTSPerNodeTasks(b *testing.B) { benchAblationSeqDepth(b, 0) }
func BenchmarkAblationUTSSeqDepth5(b *testing.B)    { benchAblationSeqDepth(b, 5) }

// Victim selection: uniform (the paper's policy) vs topology-aware
// intra-node-first (§VI future work; the hier steal policy).
func benchAblationVictim(b *testing.B, victim core.VictimPolicy) {
	p := workload.DefaultPForParams(1 << 10)
	cfg := benchCfg(core.ContGreedy, remobj.LocalCollection)
	cfg.Workers = 72 // two nodes so locality matters
	cfg.Steal.Victim = victim
	var st core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.New(cfg)
		_, st = rt.Run(workload.PFor(p))
	}
	b.ReportMetric(st.ExecTime.Seconds()*1e3, "vtime-ms")
	b.ReportMetric(float64(st.AvgStealLatency()), "steal-lat-ns")
}

func BenchmarkAblationVictimUniform(b *testing.B)   { benchAblationVictim(b, core.VictimUniform) }
func BenchmarkAblationVictimNodeFirst(b *testing.B) { benchAblationVictim(b, core.VictimHier) }

// Stack scheme: uni-address (the paper) vs iso-address (PM2/Charm++),
// comparing virtual address-space consumption for identical schedules.
func benchAblationStackScheme(b *testing.B, scheme core.StackScheme) {
	p := workload.DefaultPForParams(1 << 10)
	cfg := benchCfg(core.ContGreedy, remobj.LocalCollection)
	cfg.StackScheme = scheme
	var st core.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.New(cfg)
		_, st = rt.Run(workload.PFor(p))
	}
	b.ReportMetric(st.ExecTime.Seconds()*1e3, "vtime-ms")
	b.ReportMetric(float64(st.IsoVirtualBytes)/(1<<20), "iso-vaddr-MiB")
	b.ReportMetric(float64(st.Stack.Evacuations), "evacuations")
}

func BenchmarkAblationUniAddress(b *testing.B) { benchAblationStackScheme(b, core.UniAddress) }
func BenchmarkAblationIsoAddress(b *testing.B) { benchAblationStackScheme(b, core.IsoAddress) }

// ---------------------------------------------------------------------------
// Sharded engine — host throughput of the windowed conservative execution
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Serving — open-system saturation sweep (EXPERIMENTS.md "Serving")
// ---------------------------------------------------------------------------

// benchServe runs one open-system cell — Poisson arrivals at the given
// offered-load multiplier, always-admit — and reports the virtual p99
// sojourn and goodput alongside host ns/op. Past the knee (load 2) the
// goodput plateaus at service capacity while p99 grows with the backlog.
func benchServe(b *testing.B, system string, load float64) {
	o := experiments.Options{Machine: "itoa", Workers: 18, Seed: 11}
	p := experiments.ServeParams{Requests: 96}
	var last experiments.ServeRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = experiments.ServeOnce(o, p, system, "poisson", "always", load)
	}
	if last.Completed != last.Admitted {
		b.Fatalf("%s: %d of %d admitted requests completed", system, last.Completed, last.Admitted)
	}
	b.ReportMetric(float64(last.P99), "p99-ns")
	b.ReportMetric(last.GoodputRps/1e6, "Mreq/s")
}

func BenchmarkServeSaturation(b *testing.B) {
	for _, system := range []string{"ours", "saws", "charm", "glb"} {
		for _, load := range []float64{0.5, 2} {
			b.Run(fmt.Sprintf("%s/load%g", system, load), func(b *testing.B) {
				benchServe(b, system, load)
			})
		}
	}
}

// benchEngineSharded runs a fixed shard-confined program — 4 logical nodes
// exchanging cross-node events at exactly the lookahead of the WISTERIA-O
// model — on a windowed group of the given shard count and reports host
// event throughput plus barrier rounds per run. The virtual-time result is
// identical for every shard count and window mode (the differential tests
// assert it); only host wall time and round counts change. On a multi-core
// host the multi-shard runs execute rounds concurrently; on a single-thread
// host the numbers only instrument the windowing overhead. The Lockstep
// variants pin the old single-global-window mode as the before side of the
// adaptive-lookahead comparison (EXPERIMENTS.md "Host throughput").
func benchEngineSharded(b *testing.B, shards int, lockstep bool) {
	const nodes = 4
	const steps = 20000
	look := experiments.MachineByName("wisteria").MinCrossNodeLatency()
	var events, rounds uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.NewSharded(shards, look)
		s.SetLockStep(lockstep)
		for node := 0; node < nodes; node++ {
			node := node
			shard := node % shards
			s.Go(shard, "node", func(p *sim.Proc) {
				for step := 0; step < steps; step++ {
					p.Sleep(sim.Time(200 + node))
					s.Shard(shard).After(50, func() {})
					if step%4 == 0 {
						dst := ((node + 1) % nodes) % shards
						s.RouteAfter(shard, dst, look, func() {})
					}
				}
			})
		}
		s.Run(sim.Forever)
		events = s.Stats().Events
		rounds = s.Rounds()
		s.Shutdown()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(float64(rounds), "rounds/run")
}

func BenchmarkEngineSharded1(b *testing.B)         { benchEngineSharded(b, 1, false) }
func BenchmarkEngineSharded2(b *testing.B)         { benchEngineSharded(b, 2, false) }
func BenchmarkEngineSharded4(b *testing.B)         { benchEngineSharded(b, 4, false) }
func BenchmarkEngineShardedLockstep2(b *testing.B) { benchEngineSharded(b, 2, true) }
func BenchmarkEngineShardedLockstep4(b *testing.B) { benchEngineSharded(b, 4, true) }
