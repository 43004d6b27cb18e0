// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the simulated cluster. Each experiment
// function returns structured rows; cmd/repro, through the manifest
// registry, is what runs and prints them.
//
// Scale: the paper ran on 576–110,592 physical cores with problem sizes
// tuned for seconds-long runs; a discrete-event simulation executes every
// scheduler event of every core in one host thread, so the *default* scale
// here is reduced (fewer workers, smaller N) while preserving each
// experiment's qualitative shape (who wins, by what factor, where curves
// flatten). The Scale knob restores larger configurations.
package experiments

import (
	"fmt"
	"time"

	"contsteal/internal/bot"
	"contsteal/internal/core"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// Variant is one scheduler configuration of §V-A/§V-B: a policy plus a
// remote-free strategy.
type Variant struct {
	Name   string
	Policy core.Policy
	Free   remobj.Strategy
}

// greedy is the paper's full system: continuation stealing, greedy join,
// local-collection frees. Every experiment outside Fig. 6/Table II/III runs it.
var greedy = Variant{"greedy", core.ContGreedy, remobj.LocalCollection}

// Variants returns the five configurations of Fig. 6, in the paper's order:
// the MassiveThreads/DM baseline (stalling join, lock-queue frees), the
// +local-collection version, the +greedy version (the paper's full system),
// and the two child-stealing implementations.
func Variants() []Variant {
	return []Variant{
		{"baseline", core.ContStalling, remobj.LockQueue},
		{"localcollect", core.ContStalling, remobj.LocalCollection},
		greedy,
		{"child-full", core.ChildFull, remobj.LocalCollection},
		{"child-rtc", core.ChildRtC, remobj.LocalCollection},
	}
}

// joinVariants are the four stealing/joining strategies of Table II (and,
// without child-rtc, Table III), all with local collection.
var joinVariants = []Variant{
	{"cont-greedy", core.ContGreedy, remobj.LocalCollection},
	{"cont-stalling", core.ContStalling, remobj.LocalCollection},
	{"child-full", core.ChildFull, remobj.LocalCollection},
	{"child-rtc", core.ChildRtC, remobj.LocalCollection},
}

// MachineByName resolves "itoa" or "wisteria".
func MachineByName(name string) *topo.Machine {
	switch name {
	case "itoa":
		return topo.ITOA()
	case "wisteria":
		return topo.WisteriaO()
	default:
		panic(fmt.Sprintf("experiments: unknown machine %q", name))
	}
}

// Options tunes experiment scale.
type Options struct {
	Machine string // "itoa" or "wisteria"
	Workers int    // simulated cores (0 = experiment default)
	Scale   int    // problem-size scale exponent shift (0 = default, +k doubles sizes k times)
	Seed    int64
	// Parallel bounds the host worker pool the sweep's independent
	// simulations run on (see sweep.go). 0 means runtime.NumCPU();
	// 1 forces the sequential reference order. Results are identical
	// for every value.
	Parallel int
	// WorkScale multiplies UTS per-node work, letting one simulated node
	// stand for WorkScale nodes of a proportionally larger tree — how the
	// headline 110,592-core run is fed without simulating hundreds of
	// billions of nodes (see DESIGN.md on substitutions). 0 means 1.
	WorkScale int
	// DequeCap overrides the per-worker deque capacity (memory control for
	// very large worker counts). 0 keeps the runtime default.
	DequeCap int
	// Obs, when non-nil, collects a trace and/or metrics registry from the
	// first simulated run of the invocation (first grid point of a sweep).
	Obs *ObsCollector
	// Observer, when non-nil, is told of every finished job and of every
	// fork-join run's engine counters (see Observer).
	Observer *Observer
	// Perturb, when non-nil, injects deterministic timing/fault perturbations
	// into every simulated run of the experiment (see topo.Perturb). The
	// struct is read-only configuration; per-run RNG state lives in each
	// run's own Machine, so sharing one Perturb across grid points is safe.
	Perturb *topo.Perturb

	// Steal names the steal policy (core.ParseStealPolicy) applied to every
	// core runtime the experiment builds. "" or "uniform" is the paper's
	// policy and leaves output byte-identical to the pre-policy runtime.
	// Experiments with their own policy axis (stealzoo) ignore it.
	Steal string

	// obsClaimed marks an Options copy whose job claimed Obs at
	// grid-construction time (see claimObs).
	obsClaimed bool
}

func (o *Options) defaults(workers int) {
	if o.Machine == "" {
		o.Machine = "itoa"
	}
	if o.Workers <= 0 {
		o.Workers = workers
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// claimObs returns o marked as the collector's owner if this call claimed
// it. Sweeps call it while building their job grid — sequentially, before
// the pool starts — so the first fork-join grid point is the one traced,
// whatever -parallel is. Only our runtime produces traces: a baseline job
// passes ours=false and never competes.
func (o Options) claimObs(ours bool) Options {
	o.obsClaimed = ours && o.Obs.claim()
	return o
}

// machine is the Machine every run of o simulates: the named preset under
// o's perturbation model.
func (o Options) machine() *topo.Machine {
	m := MachineByName(o.Machine)
	m.Perturb = o.Perturb
	return m
}

func runCfg(o Options, v Variant) core.Config {
	steal, err := core.ParseStealPolicy(o.Steal)
	if err != nil {
		panic(err)
	}
	return core.Config{
		Machine:    o.machine(),
		Workers:    o.Workers,
		Policy:     v.Policy,
		RemoteFree: v.Free,
		Seed:       o.Seed,
		Steal:      steal,
		DequeCap:   o.DequeCap,
		MaxTime:    1800 * sim.Second,
	}
}

// runCore is the one place this package builds and drives a fork-join
// runtime: arm the collector if this job owns it (claimed at grid
// construction, or here for a direct single run), build the runtime, time
// the drive, deliver the claimed outputs and report the engine counters.
// tune (may be nil) adjusts the config runCfg built; drive runs the workload
// — Run or Serve — and returns its run statistics.
func runCore(o Options, c Coord, v Variant, tune func(*core.Config), drive func(*core.Runtime) core.RunStats) *core.Runtime {
	mine := o.obsClaimed || o.Obs.claim()
	cfg := runCfg(o, v)
	if tune != nil {
		tune(&cfg)
	}
	if mine {
		o.Obs.apply(&cfg)
	}
	rt := core.New(cfg)
	start := time.Now()
	st := drive(rt)
	if mine {
		o.Obs.deliver(c, rt, st)
	}
	o.Observer.engineStats(c, st, time.Since(start))
	return rt
}

// runTask drives one closed fork-join task through runCore.
func runTask(o Options, c Coord, v Variant, tune func(*core.Config), task core.TaskFunc) (ret []byte, st core.RunStats) {
	runCore(o, c, v, tune, func(rt *core.Runtime) core.RunStats {
		ret, st = rt.Run(task)
		return st
	})
	return ret, st
}

// pforTask builds the synthetic benchmark of §IV-C (K=5, M=10 µs) at size n
// and its total work T1 on the reference machine.
func pforTask(bench string, n int) (core.TaskFunc, sim.Time) {
	p := workload.DefaultPForParams(n)
	if bench == "pfor" {
		return workload.PFor(p), p.T1PFor()
	}
	return workload.RecPFor(p), p.T1RecPFor()
}

// ---------------------------------------------------------------------------
// Fig. 6 — parallel efficiency of PFor/RecPFor vs problem size
// ---------------------------------------------------------------------------

// Fig6Row is one point of Fig. 6.
type Fig6Row struct {
	Bench      string
	Machine    string
	Variant    string
	N          int
	IdealTime  sim.Time // T1 / P
	ExecTime   sim.Time
	Efficiency float64
}

// Fig6 sweeps problem size N for both synthetic benchmarks over all five
// scheduler variants. The N×variant grid runs on the sweep pool; rows come
// back in grid order.
func Fig6(o Options, bench string, ns []int) []Fig6Row {
	o.defaults(72)
	if ns == nil {
		base := []int{1 << 10, 1 << 11, 1 << 12, 1 << 13}
		if bench == "recpfor" {
			base = []int{1 << 8, 1 << 9, 1 << 10, 1 << 11}
		}
		for i := range base {
			base[i] <<= o.Scale
		}
		ns = base
	}
	var jobs []Job
	for _, n := range ns {
		for _, v := range Variants() {
			coord := Coord{Experiment: "fig6", Bench: bench, Variant: v.Name, N: n, Workers: o.Workers, Seed: o.Seed}
			oj := o.claimObs(true)
			jobs = append(jobs, Job{Coord: coord, Run: func() any {
				task, t1 := pforTask(bench, n)
				t1 = MachineByName(o.Machine).Compute(t1)
				_, st := runTask(oj, coord, v, nil, task)
				return Fig6Row{
					Bench:      bench,
					Machine:    o.Machine,
					Variant:    v.Name,
					N:          n,
					IdealTime:  t1 / sim.Time(o.Workers),
					ExecTime:   st.ExecTime,
					Efficiency: st.Efficiency(t1),
				}
			}})
		}
	}
	return collect[Fig6Row](RunJobs(o.Parallel, o.Observer, jobs))
}

// Fig6Layout renders Fig. 6 rows.
var Fig6Layout = Layout[Fig6Row]{
	Section: func(r []Fig6Row) string { return "fig6_" + r[0].Bench + "_" + r[0].Machine },
	Title: func(r []Fig6Row) string {
		return fmt.Sprintf("Fig. 6: %s parallel efficiency on %s", r[0].Bench, r[0].Machine)
	},
	Table: []Col[Fig6Row]{
		{"N", "%d", func(r Fig6Row) any { return r.N }},
		{"variant", "%s", func(r Fig6Row) any { return r.Variant }},
		{"ideal(T1/P)", "%v", func(r Fig6Row) any { return r.IdealTime }},
		{"exec", "%v", func(r Fig6Row) any { return r.ExecTime }},
		{"efficiency", "%.3f", func(r Fig6Row) any { return r.Efficiency }},
	},
	TSV: []Col[Fig6Row]{
		{"N", "%d", func(r Fig6Row) any { return r.N }},
		{"variant", "%s", func(r Fig6Row) any { return r.Variant }},
		{"ideal_s", "%.6f", func(r Fig6Row) any { return r.IdealTime.Seconds() }},
		{"exec_s", "%.6f", func(r Fig6Row) any { return r.ExecTime.Seconds() }},
		{"efficiency", "%.4f", func(r Fig6Row) any { return r.Efficiency }},
	},
	// The parallel efficiency of the paper's full system (the greedy
	// variant) at the largest problem size of the sweep.
	Summary: func(rows []Fig6Row) map[string]float64 {
		var out map[string]float64
		for _, row := range rows {
			if row.Variant == "greedy" {
				out = map[string]float64{"greedy_efficiency": row.Efficiency}
			}
		}
		return out
	},
}

// ---------------------------------------------------------------------------
// Table II — join and steal statistics at the largest problem size
// ---------------------------------------------------------------------------

// Table2Row is one line of Table II.
type Table2Row struct {
	Machine            string
	Bench              string
	Variant            string
	ExecTime           sim.Time
	OutstandingJoins   uint64
	AvgOutstandingTime sim.Time
	StealsOK           uint64
	AvgStealLatency    sim.Time
	StealsFailed       uint64
	AvgStolenBytes     float64
	AvgTaskCopyTime    sim.Time
}

// Table2 profiles the four stealing/joining strategies (greedy, stalling,
// child-full, child-RtC — all with local collection, as in Table II) on one
// benchmark at the given size.
func Table2(o Options, bench string, n int) []Table2Row {
	o.defaults(72)
	if n == 0 {
		n = 1 << 13
		if bench == "recpfor" {
			n = 1 << 11
		}
		n <<= o.Scale
	}
	var jobs []Job
	for _, v := range joinVariants {
		coord := Coord{Experiment: "table2", Bench: bench, Variant: v.Name, N: n, Workers: o.Workers, Seed: o.Seed}
		oj := o.claimObs(true)
		jobs = append(jobs, Job{Coord: coord, Run: func() any {
			task, _ := pforTask(bench, n)
			_, st := runTask(oj, coord, v, nil, task)
			return Table2Row{
				Machine:            o.Machine,
				Bench:              bench,
				Variant:            v.Name,
				ExecTime:           st.ExecTime,
				OutstandingJoins:   st.Join.Outstanding,
				AvgOutstandingTime: st.AvgOutstandingJoinTime(),
				StealsOK:           st.Work.StealsOK,
				AvgStealLatency:    st.AvgStealLatency(),
				StealsFailed:       st.Work.StealsFail,
				AvgStolenBytes:     st.AvgStolenBytes(),
				AvgTaskCopyTime:    st.AvgTaskCopyTime(),
			}
		}})
	}
	return collect[Table2Row](RunJobs(o.Parallel, o.Observer, jobs))
}

// Table2Layout renders Table II rows.
var Table2Layout = Layout[Table2Row]{
	Section: func(r []Table2Row) string { return "table2_" + r[0].Bench + "_" + r[0].Machine },
	Title: func(r []Table2Row) string {
		return fmt.Sprintf("Table II: join/steal statistics, %s on %s", r[0].Bench, r[0].Machine)
	},
	Table: []Col[Table2Row]{
		{"strategy", "%s", func(r Table2Row) any { return r.Variant }},
		{"exec", "%v", func(r Table2Row) any { return r.ExecTime }},
		{"#OJ", "%d", func(r Table2Row) any { return r.OutstandingJoins }},
		{"avgOJtime", "%v", func(r Table2Row) any { return r.AvgOutstandingTime }},
		{"#steals(ok)", "%d", func(r Table2Row) any { return r.StealsOK }},
		{"avgLatency", "%v", func(r Table2Row) any { return r.AvgStealLatency }},
		{"#steals(fail)", "%d", func(r Table2Row) any { return r.StealsFailed }},
		{"avgStolen", "%.0fB", func(r Table2Row) any { return r.AvgStolenBytes }},
		{"avgCopy", "%v", func(r Table2Row) any { return r.AvgTaskCopyTime }},
	},
}

// ---------------------------------------------------------------------------
// Fig. 7 — time series of busy workers and ready outstanding joins
// ---------------------------------------------------------------------------

// Fig7Result holds the two traced runs of Fig. 7.
type Fig7Result struct {
	Workers    int
	ContGreedy []core.Sample
	ChildFull  []core.Sample
}

// Fig7 traces RecPFor under continuation stealing (greedy) and child
// stealing (Full) with a periodic sampler. The two traced runs are
// independent jobs.
func Fig7(o Options, n int) Fig7Result {
	o.defaults(72)
	if n == 0 {
		n = (1 << 11) << o.Scale
	}
	var jobs []Job
	for _, v := range []Variant{greedy, {"child-full", core.ChildFull, remobj.LocalCollection}} {
		coord := Coord{Experiment: "fig7", Bench: "recpfor", Variant: v.Name, N: n, Workers: o.Workers, Seed: o.Seed}
		oj := o.claimObs(true)
		jobs = append(jobs, Job{Coord: coord, Run: func() any {
			task, _ := pforTask("recpfor", n)
			_, st := runTask(oj, coord, v, func(cfg *core.Config) { cfg.Sample = 2 * sim.Millisecond }, task)
			return st.Series
		}})
	}
	series := collect[[]core.Sample](RunJobs(o.Parallel, o.Observer, jobs))
	return Fig7Result{Workers: o.Workers, ContGreedy: series[0], ChildFull: series[1]}
}

// ---------------------------------------------------------------------------
// Fig. 8 / Fig. 9 — UTS throughput scaling
// ---------------------------------------------------------------------------

// Fig8Row is one point of the UTS strong-scaling plots.
type Fig8Row struct {
	System     string // ours / saws / charm / glb
	Tree       string
	Machine    string
	Workers    int
	Nodes      int64
	ExecTime   sim.Time
	Throughput float64 // nodes per second of virtual time
	Efficiency float64 // vs single-core serial rate
}

// TreeByName resolves a UTS preset.
func TreeByName(name string) workload.UTSTree {
	switch name {
	case "T1L", "T1L'":
		return workload.T1LPrime()
	case "T1XXL", "T1XXL'":
		return workload.T1XXLPrime()
	case "T1WL", "T1WL'":
		return workload.T1WLPrime()
	default:
		panic(fmt.Sprintf("experiments: unknown tree %q", name))
	}
}

func botConfig(o Options) bot.Config {
	work := sim.Time(190)
	if o.WorkScale > 1 {
		work *= sim.Time(o.WorkScale)
	}
	return bot.Config{
		Machine: o.machine(),
		Workers: o.Workers,
		Seed:    o.Seed,
		Work:    work,
		MaxTime: 1800 * sim.Second,
	}
}

func botExpand(tree workload.UTSTree) (bot.Task, bot.Expand) {
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
	return root, expand
}

// UTSSerialTime models the single-core execution time of a tree under the
// fork-join runtime: per node, the hash work plus the runtime's serial
// spawn/die path (spawn, entry allocation, queue push+pop, flag, free).
// Efficiencies are normalized against this, matching the paper's "parallel
// efficiency calculated with a single-core execution time".
func UTSSerialTime(mach *topo.Machine, t workload.UTSTree, nodes int64) sim.Time {
	perNode := mach.Compute(t.NodeWork) + mach.SpawnCost + mach.AllocCost + 4*mach.LocalOp
	return sim.Time(nodes) * perNode
}

// utsTree resolves a UTS preset with its per-node work scaled by
// o.WorkScale.
func utsTree(o Options, name string) workload.UTSTree {
	t := TreeByName(name)
	if o.WorkScale > 1 {
		t.NodeWork *= sim.Time(o.WorkScale)
	}
	return t
}

// utsRun traverses t on o.Workers cores under one system: "ours" on the
// fork-join runtime, with seqDepth aggregating the bottom levels of the
// traversal, the baselines on their bag-of-tasks models. Both report through
// bot.Stats — Tasks is the node count (for ours the traversal's own result:
// recounting the tree serially would redo millions of SHA-1s per grid point)
// and Exec the virtual time; the message counters are the baselines' only.
func utsRun(o Options, c Coord, system string, t workload.UTSTree, seqDepth int) bot.Stats {
	if system != "ours" {
		root, expand := botExpand(t)
		return bot.Run(system, botConfig(o), root, expand)
	}
	ret, st := runTask(o, c, greedy, nil, workload.UTS(t, seqDepth))
	return bot.Stats{Exec: st.ExecTime, Tasks: core.RetInt64(ret)}
}

// UTSOnce runs one UTS configuration under one system and returns its row.
// system ∈ {ours, saws, charm, glb}; seqDepth aggregates the bottom levels
// of the fork-join traversal (0 = one task per node).
func UTSOnce(o Options, system, tree string, workers, seqDepth int) Fig8Row {
	o.Workers = workers
	o.defaults(workers)
	t := utsTree(o, tree)
	st := utsRun(o, Coord{Experiment: "uts", System: system, Tree: t.Name, Workers: workers, Seed: o.Seed},
		system, t, seqDepth)
	serial := UTSSerialTime(MachineByName(o.Machine), t, st.Tasks)
	return Fig8Row{
		System: system, Tree: t.Name, Machine: o.Machine, Workers: workers,
		Nodes: st.Tasks, ExecTime: st.Exec,
		Throughput: float64(st.Tasks) / st.Exec.Seconds(),
		Efficiency: float64(serial) / float64(st.Exec) / float64(workers),
	}
}

// utsJob wraps one UTSOnce configuration as a sweep job.
func utsJob(o Options, experiment, system, tree string, workers, seqDepth int) Job {
	o = o.claimObs(system == "ours")
	return Job{
		Coord: Coord{Experiment: experiment, Tree: tree, System: system, Workers: workers, Seed: o.Seed},
		Run:   func() any { return UTSOnce(o, system, tree, workers, seqDepth) },
	}
}

// Fig8 sweeps worker counts for every system on the given tree.
func Fig8(o Options, tree string, workerCounts []int, seqDepth int) []Fig8Row {
	o.defaults(0)
	if workerCounts == nil {
		workerCounts = []int{36, 72, 144, 288, 576}
	}
	var jobs []Job
	for _, system := range []string{"ours", "saws", "charm", "glb"} {
		for _, w := range workerCounts {
			jobs = append(jobs, utsJob(o, "fig8", system, tree, w, seqDepth))
		}
	}
	return collect[Fig8Row](RunJobs(o.Parallel, o.Observer, jobs))
}

// Fig9 sweeps worker counts for our runtime only (the paper ran it alone on
// WISTERIA-O, up to 110,592 cores).
func Fig9(o Options, tree string, workerCounts []int, seqDepth int) []Fig8Row {
	if o.Machine == "" {
		o.Machine = "wisteria"
	}
	o.defaults(0)
	if workerCounts == nil {
		workerCounts = []int{48, 192, 768, 3072}
	}
	var jobs []Job
	for _, w := range workerCounts {
		jobs = append(jobs, utsJob(o, "fig9", "ours", tree, w, seqDepth))
	}
	return collect[Fig8Row](RunJobs(o.Parallel, o.Observer, jobs))
}

// utsLayout renders the UTS strong-scaling rows under a figure's title.
func utsLayout(title string) Layout[Fig8Row] {
	return Layout[Fig8Row]{
		Section: func(r []Fig8Row) string { return "uts_" + r[0].Tree + "_" + r[0].Machine },
		Title: func(r []Fig8Row) string {
			return fmt.Sprintf("%s on %s, tree %s (%d nodes)", title, r[0].Machine, r[0].Tree, r[0].Nodes)
		},
		Table: []Col[Fig8Row]{
			{"system", "%s", func(r Fig8Row) any { return r.System }},
			{"workers", "%d", func(r Fig8Row) any { return r.Workers }},
			{"exec", "%v", func(r Fig8Row) any { return r.ExecTime }},
			{"throughput(Mnodes/s)", "%.2f", func(r Fig8Row) any { return r.Throughput / 1e6 }},
			{"efficiency", "%.3f", func(r Fig8Row) any { return r.Efficiency }},
		},
		TSV: []Col[Fig8Row]{
			{"system", "%s", func(r Fig8Row) any { return r.System }},
			{"workers", "%d", func(r Fig8Row) any { return r.Workers }},
			{"exec_s", "%.6f", func(r Fig8Row) any { return r.ExecTime.Seconds() }},
			{"Mnodes_per_s", "%.3f", func(r Fig8Row) any { return r.Throughput / 1e6 }},
			{"efficiency", "%.4f", func(r Fig8Row) any { return r.Efficiency }},
		},
		// The peak virtual-time node throughput across the sweep and our
		// runtime's efficiency at its largest worker count.
		Summary: func(rows []Fig8Row) map[string]float64 {
			out := map[string]float64{}
			var peak float64
			oursWorkers := -1
			for _, row := range rows {
				if row.Throughput > peak {
					peak = row.Throughput
				}
				if row.System == "ours" && row.Workers > oursWorkers {
					oursWorkers = row.Workers
					out["ours_efficiency"] = row.Efficiency
				}
			}
			out["peak_mnodes_per_s"] = peak / 1e6
			return out
		},
	}
}

// Fig8Layout and Fig9Layout render the UTS rows of Fig. 8 and Fig. 9.
var (
	Fig8Layout = utsLayout("Fig. 8: UTS throughput")
	Fig9Layout = utsLayout("Fig. 9: UTS throughput (ours)")
)

// ---------------------------------------------------------------------------
// Table III / Fig. 12 — LCS with futures
// ---------------------------------------------------------------------------

// Table3Row is one line of Table III.
type Table3Row struct {
	N        int
	Variant  string
	ExecTime sim.Time
}

// runLCS runs the LCS benchmark p under v.
func runLCS(o Options, c Coord, v Variant, p workload.LCSParams) core.RunStats {
	_, st := runTask(o, c, v, func(cfg *core.Config) { cfg.RetvalBytes = p.RetvalBytes() }, workload.LCS(p))
	return st
}

// Table3 measures LCS under the three schedulers of Table III.
func Table3(o Options, ns []int) []Table3Row {
	o.defaults(72)
	if ns == nil {
		ns = []int{(1 << 14) << o.Scale, (1 << 15) << o.Scale}
	}
	var jobs []Job
	for _, n := range ns {
		for _, v := range joinVariants[:3] {
			coord := Coord{Experiment: "table3", Variant: v.Name, N: n, Workers: o.Workers, Seed: o.Seed}
			oj := o.claimObs(true)
			jobs = append(jobs, Job{Coord: coord, Run: func() any {
				st := runLCS(oj, coord, v, workload.DefaultLCSParams(n))
				return Table3Row{N: n, Variant: v.Name, ExecTime: st.ExecTime}
			}})
		}
	}
	return collect[Table3Row](RunJobs(o.Parallel, o.Observer, jobs))
}

// Table3Layout renders Table III rows.
var Table3Layout = Layout[Table3Row]{
	Section: func([]Table3Row) string { return "table3" },
	Title:   func([]Table3Row) string { return "Table III: LCS execution times" },
	Table: []Col[Table3Row]{
		{"N", "%d", func(r Table3Row) any { return r.N }},
		{"scheduler", "%s", func(r Table3Row) any { return r.Variant }},
		{"exec", "%v", func(r Table3Row) any { return r.ExecTime }},
	},
}

// Fig12Row is one point of Fig. 12: measured time against the
// greedy-scheduling-theorem band.
type Fig12Row struct {
	N          int
	Workers    int
	ExecTime   sim.Time
	LowerBound sim.Time // max(T1/P, T∞)
	UpperBound sim.Time // T1/P + T∞
	InBand     bool
}

// Fig12 sweeps worker counts for several problem sizes under continuation
// stealing with greedy join and compares against the theoretical bounds.
func Fig12(o Options, ns []int, workerCounts []int) []Fig12Row {
	o.defaults(72)
	if ns == nil {
		ns = []int{(1 << 14) << o.Scale, (1 << 15) << o.Scale}
	}
	if workerCounts == nil {
		workerCounts = []int{18, 36, 72, 144, 288}
	}
	var jobs []Job
	for _, n := range ns {
		for _, w := range workerCounts {
			coord := Coord{Experiment: "fig12", Variant: "greedy", N: n, Workers: w, Seed: o.Seed}
			oj := o.claimObs(true)
			oj.Workers = w
			jobs = append(jobs, Job{Coord: coord, Run: func() any {
				mach := MachineByName(o.Machine)
				p := workload.DefaultLCSParams(n)
				t1 := mach.Compute(p.T1())
				tinf := mach.Compute(p.TInf())
				st := runLCS(oj, coord, greedy, p)
				lower := t1 / sim.Time(w)
				if tinf > lower {
					lower = tinf
				}
				upper := t1/sim.Time(w) + tinf
				return Fig12Row{
					N: n, Workers: w, ExecTime: st.ExecTime,
					LowerBound: lower, UpperBound: upper,
					// Real schedulers may exceed the zero-overhead bound
					// slightly (§V-D); report band membership with 10% slack.
					InBand: st.ExecTime >= lower && float64(st.ExecTime) <= 1.10*float64(upper),
				}
			}})
		}
	}
	return collect[Fig12Row](RunJobs(o.Parallel, o.Observer, jobs))
}

// Fig12Layout renders Fig. 12 rows.
var Fig12Layout = Layout[Fig12Row]{
	Section: func([]Fig12Row) string { return "fig12" },
	Title:   func([]Fig12Row) string { return "Fig. 12: LCS vs greedy-scheduling-theorem bounds" },
	Table: []Col[Fig12Row]{
		{"N", "%d", func(r Fig12Row) any { return r.N }},
		{"workers", "%d", func(r Fig12Row) any { return r.Workers }},
		{"exec", "%v", func(r Fig12Row) any { return r.ExecTime }},
		{"lower=max(T1/P,Tinf)", "%v", func(r Fig12Row) any { return r.LowerBound }},
		{"upper=T1/P+Tinf", "%v", func(r Fig12Row) any { return r.UpperBound }},
		{"in-band", "%v", func(r Fig12Row) any { return r.InBand }},
	},
	// The fraction of points inside the greedy-scheduling band.
	Summary: func(rows []Fig12Row) map[string]float64 {
		in := 0
		for _, row := range rows {
			if row.InBand {
				in++
			}
		}
		return map[string]float64{"in_band_frac": float64(in) / float64(len(rows))}
	},
}
