package main

import (
	"fmt"
	"sort"
	"time"

	"contsteal/internal/bot"
	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/workload"
)

// A workload is a fixed, ordered list of simulation cells run once, in one
// cold process. The cell order is part of the definition: uts_fig9's second
// cell deliberately finds the process-global UTS subtree memo warm.
type workloadDef struct {
	name string
	why  string
	// gomaxprocs is set by the child itself: 1 is the documented reference
	// order with the least Go-scheduler noise. The gated repeats of every
	// workload run at 1: on a 2-vCPU shared host a run that needs both vCPUs
	// at once measures the neighbours (uts_shards2 at 2 spread 75 % between
	// identical runs, against 4 % at 1).
	gomaxprocs int
	// procsProbe, when not 0, is a GOMAXPROCS at which the traced run repeats
	// the cells once more, untraced, for the host.wall_p2_s layer metric.
	procsProbe int
	cells      int
	// efficiencyCell is the cell whose efficiency is the workload's
	// sim_efficiency.
	efficiencyCell int
	// setup generates inputs and computes the serial oracles; its result is
	// handed to the timed children so that none of it lands in wall_s.
	setup func(seed int64, small bool, sp *spanLog) ([]int64, error)
	// run executes the cells in order.
	run func(e *env)
}

var workloads = []workloadDef{
	{
		name:           "uts_fig9",
		why:            "Handoff-bound reference kernel (the committed fig9 fixture): 99.7% of its events are proc wake-ups; cell 1 pays SHA-1 tree generation cold, cell 2 hits the subtree memo; steals, msg and obs idle.",
		gomaxprocs:     1,
		cells:          2,
		efficiencyCell: 1, // workers=24, the row the paper's scaling claim rests on
		setup:          utsSetup(fig9Tree),
		run: func(e *env) {
			tree, depth := fig9Tree(e.small)
			e.utsCell("workers12", "wisteria", tree, 12, depth, 1)
			e.utsCell("workers24", "wisteria", tree, 24, depth, 1)
		},
	},
	{
		name:       "dag_halfsteal",
		why:        "Steal- and communication-bound opposite of uts_fig9 with no SHA-1: 30% callbacks, 700k steal attempts at 1% success, stack migrations, evacuations, remote gets and the StealN batch chain on two nodes.",
		gomaxprocs: 1,
		cells:      1,
		setup:      dagSetup,
		run:        func(e *env) { e.dagCell() },
	},
	{
		name:           "serve_open",
		why:            "Open-loop Poisson arrivals below (0.5) and above (2) the knee, ours and charm, request tracing on: the only workload where obs, msg and bot do real work and idle parking and backoff matter.",
		gomaxprocs:     1,
		cells:          len(serveCells),
		efficiencyCell: capacityCell,
		setup:          serveSetup,
		run: func(e *env) {
			for i, c := range serveCells {
				e.serveCell(c.system, c.load, e.oracle[i%2])
			}
		},
	},
	{
		name:       "uts_shards2",
		why:        "Only multi-node, multi-shard workload: 2 nodes on 2 engine shards, 0.9% of events cross shards; gated at GOMAXPROCS 1, as 2 shared vCPUs cannot time 2 Ps steadily; GOMAXPROCS 2 is host.wall_p2_s.",
		gomaxprocs: 1,
		procsProbe: 2,
		cells:      1,
		setup:      utsSetup(shardsTree),
		run: func(e *env) {
			tree, depth := shardsTree(e.small)
			e.utsCell("workers72", "itoa", tree, 72, depth, 2)
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v, or all)", name, workloadNames())
}

// The small variants exist so the tier-1 test can run every workload's code
// path in two processes within a few seconds; they are never measured.

func fig9Tree(small bool) (workload.UTSTree, int) {
	if small {
		return workload.T1LPrime(), 10
	}
	return workload.T1WLPrime(), 10
}

func shardsTree(small bool) (workload.UTSTree, int) {
	if small {
		return workload.T1LPrime(), 6
	}
	return workload.T1XXLPrime(), 6
}

func dagParams(seed int64, small bool) workload.DAGParams {
	n := 48
	if small {
		n = 8
	}
	return workload.DAGParams{Shape: "wavefront", N: n, Steps: n, Seed: seed}
}

const (
	serveWorkers = 72
	serveMachine = "itoa"
)

var serveCells = []struct {
	system string
	load   float64
}{{"ours", 0.5}, {"ours", 2}, {"charm", 0.5}, {"charm", 2}}

func serveParams(small bool) experiments.ServeParams {
	p := experiments.ServeParams{Requests: 16000, NodeWork: 190, MaxFanout: 3, MaxDepth: 3}
	if small {
		p.Requests = 96
	}
	return p
}

func serveOptions(seed int64) experiments.Options {
	return experiments.Options{Machine: serveMachine, Workers: serveWorkers, Seed: seed}
}

// serveRequests regenerates the request trace ServeOnce offers at one load
// (always-admit, Poisson), field for field as its unexported serveSpec does.
func serveRequests(seed int64, small bool, load float64) []workload.ServeReq {
	p := serveParams(small)
	return workload.GenServe(workload.ServeSpec{
		Process:   "poisson",
		RateRps:   load * p.CapacityRps(serveOptions(seed)),
		Requests:  p.Requests,
		Seed:      seed,
		MaxFanout: p.MaxFanout,
		MaxDepth:  p.MaxDepth,
		NodeWork:  p.NodeWork,
	})
}

// ---------------------------------------------------------------------------
// Setup: input generation and serial oracles, outside every timed region.
// ---------------------------------------------------------------------------

func utsSetup(tree func(bool) (workload.UTSTree, int)) func(int64, bool, *spanLog) ([]int64, error) {
	return func(_ int64, small bool, sp *spanLog) ([]int64, error) {
		t, depth := tree(small)
		sp.in("workload.gen", -1, func() { _ = workload.UTS(t, depth) })
		return []int64{t.CountSerial()}, nil
	}
}

func dagSetup(seed int64, small bool, sp *spanLog) ([]int64, error) {
	d := dagParams(seed, small)
	sp.in("workload.gen", -1, func() { _ = d.Task() })
	return []int64{d.SerialChecksum()}, nil
}

// serveSetup returns the task count of the offered trace at each load: every
// request must complete, so it is also the number of tasks each cell runs.
func serveSetup(seed int64, small bool, sp *spanLog) ([]int64, error) {
	var out []int64
	for _, load := range []float64{serveCells[0].load, serveCells[1].load} {
		var reqs []workload.ServeReq
		sp.in("workload.gen", -1, func() { reqs = serveRequests(seed, small, load) })
		var nodes int64
		for _, r := range reqs {
			nodes += r.Nodes()
		}
		out = append(out, nodes)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Cells.
// ---------------------------------------------------------------------------

// env is one child's run state.
type env struct {
	seed   int64
	small  bool
	traced bool
	oracle []int64
	spans  *spanLog
	root   int // the repeat's span
	counts counts
	cells  []cellResult
}

// digest is the simulated outcome of one cell. It must be identical in every
// repeat, with tracing on or off, and at a pinned seed equal expected.json:
// a change meant only to make the simulator faster may not move any field.
// Serve cells come from experiments.ServeOnce rows, which carry no steal or
// migration counts; those fields stay zero there.
type digest struct {
	Cell         string `json:"cell"`
	ExecNs       int64  `json:"exec_ns"`
	Tasks        int64  `json:"tasks"`
	StealsOK     uint64 `json:"steals_ok"`
	StealsFail   uint64 `json:"steals_fail"`
	MigrationsIn uint64 `json:"migrations_in"`
	Result       int64  `json:"result"`
	P50Ns        int64  `json:"p50_ns,omitempty"`
	P99Ns        int64  `json:"p99_ns,omitempty"`
	P999Ns       int64  `json:"p999_ns,omitempty"`
}

// cellResult is one operation of the benchmark: one cell of one repeat.
type cellResult struct {
	Digest digest  `json:"digest"`
	WallS  float64 `json:"wall_s"`
	// Core marks cells that run on internal/core (and so on internal/sim's
	// engine with public counters); charm cells run on internal/bot.
	Core bool `json:"core"`
	// Efficiency is simulated useful work over workers × makespan.
	Efficiency float64 `json:"efficiency"`
	GoodputRps float64 `json:"goodput_rps,omitempty"`
	// Row is the cell as the fig9 golden TSV prints it (uts cells only).
	Row    string `json:"row,omitempty"`
	Failed string `json:"failed,omitempty"`
}

// cell runs body as one operation: timed, spanned under the repeat, and with
// a panic barrier, because the runtimes report a blown MaxTime, a leaked proc
// or a failed request-attribution cross-check by panicking.
func (e *env) cell(name string, onCore bool, body func(c *cellResult, span int) error) {
	c := cellResult{Core: onCore}
	c.Digest.Cell = name
	span := e.spans.begin(name, e.root)
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.Failed = fmt.Sprint("panic: ", r)
			}
		}()
		if err := body(&c, span); err != nil {
			c.Failed = err.Error()
		}
	}()
	c.WallS = time.Since(start).Seconds()
	e.spans.end(span)
	e.cells = append(e.cells, c)
}

// coreConfig is experiments.runCfg for the paper's full system (greedy join,
// local collection), plus tracing and metrics in the traced child.
func (e *env) coreConfig(machine string, workers int) core.Config {
	return core.Config{
		Machine:    experiments.MachineByName(machine),
		Workers:    workers,
		Policy:     core.ContGreedy,
		RemoteFree: remobj.LocalCollection,
		Seed:       e.seed,
		MaxTime:    1800 * sim.Second,
		Trace:      e.traced,
		Metrics:    e.traced,
	}
}

func (e *env) newRuntime(parent int, cfg core.Config) (rt *core.Runtime) {
	e.spans.in("core.new", parent, func() { rt = core.New(cfg) })
	return rt
}

// runTask runs a closed fork-join task. In the traced child it also holds the
// recorded trace to the run's counters (Trace.Verify) and derives the
// per-rank attribution, under spans of their own.
func (e *env) runTask(parent int, rt *core.Runtime, task core.TaskFunc) (ret []byte, st core.RunStats, err error) {
	e.spans.in("core.run", parent, func() { ret, st = rt.Run(task) })
	e.counts.addCore(st, rt)
	if tlog := rt.TraceLog(); tlog != nil {
		e.spans.in("obs.verify", parent, func() { err = tlog.Verify() })
		e.spans.in("obs.attribution", parent, func() { _ = tlog.Attribution() })
	}
	return ret, st, err
}

func (c *cellResult) fillCore(st core.RunStats, result int64) {
	c.Digest.ExecNs = int64(st.ExecTime)
	c.Digest.Tasks = int64(st.Work.Tasks)
	c.Digest.StealsOK = st.Work.StealsOK
	c.Digest.StealsFail = st.Work.StealsFail
	c.Digest.MigrationsIn = st.Stack.MigrationsIn
	c.Digest.Result = result
}

func (e *env) utsCell(name, machine string, tree workload.UTSTree, workers, seqDepth, shards int) {
	e.cell(name, true, func(c *cellResult, span int) error {
		cfg := e.coreConfig(machine, workers)
		cfg.Shards = shards
		rt := e.newRuntime(span, cfg)
		ret, st, err := e.runTask(span, rt, workload.UTS(tree, seqDepth))
		if err != nil {
			return err
		}
		nodes := core.RetInt64(ret)
		c.fillCore(st, nodes)
		// Efficiency and the row are computed as experiments.UTSOnce does.
		serial := experiments.UTSSerialTime(cfg.Machine, tree, nodes)
		c.Efficiency = float64(serial) / float64(st.ExecTime) / float64(workers)
		c.Row = fmt.Sprintf("ours\t%d\t%.6f\t%.3f\t%.4f", workers,
			st.ExecTime.Seconds(), float64(nodes)/st.ExecTime.Seconds()/1e6, c.Efficiency)
		if nodes != e.oracle[0] {
			return fmt.Errorf("UTS traversal counted %d nodes, CountSerial %d", nodes, e.oracle[0])
		}
		return nil
	})
}

func (e *env) dagCell() {
	e.cell("workers72", true, func(c *cellResult, span int) error {
		d := dagParams(e.seed, e.small)
		cfg := e.coreConfig("itoa", 72)
		steal, err := core.ParseStealPolicy("hier-half")
		if err != nil {
			return err
		}
		cfg.Steal = steal
		rt := e.newRuntime(span, cfg)
		ret, st, err := e.runTask(span, rt, d.Task())
		if err != nil {
			return err
		}
		sum := core.RetInt64(ret)
		c.fillCore(st, sum)
		c.Efficiency = st.Efficiency(cfg.Machine.Compute(d.T1()))
		if sum != e.oracle[0] {
			return fmt.Errorf("dag checksum %d, SerialChecksum %d", sum, e.oracle[0])
		}
		return nil
	})
}

// serveCell runs one open-loop cell. The timed repeats go through
// experiments.ServeOnce, which is what `repro serve` users run; the traced
// child builds the same cell from the layers so that it can put spans around
// them and read their counters, and the parent holds the two to one digest.
func (e *env) serveCell(system string, load float64, nodes int64) {
	name := fmt.Sprintf("%s@%g", system, load)
	e.cell(name, system == "ours", func(c *cellResult, span int) error {
		var row experiments.ServeRow
		var err error
		switch {
		case !e.traced:
			row = experiments.ServeOnce(serveOptions(e.seed), serveParams(e.small), system, "poisson", "always", load)
		case system == "ours":
			row, err = e.serveOursTraced(span, load)
		default:
			row = e.serveCharmTraced(span, load)
		}
		if err != nil {
			return err
		}
		c.Digest.ExecNs = int64(row.Makespan)
		c.Digest.Tasks = nodes
		c.Digest.Result = int64(row.Completed)
		c.Digest.P50Ns, c.Digest.P99Ns, c.Digest.P999Ns = int64(row.P50), int64(row.P99), int64(row.P999)
		c.GoodputRps = row.GoodputRps
		// Same normalisation as the UTS cells: per-task serial cost including
		// the runtime's spawn/die path, over workers × makespan.
		mach := experiments.MachineByName(serveMachine)
		serial := experiments.UTSSerialTime(mach, workload.UTSTree{NodeWork: serveParams(e.small).NodeWork}, nodes)
		c.Efficiency = float64(serial) / float64(row.Makespan) / float64(serveWorkers)
		if row.Completed != row.Admitted || row.Admitted != row.Injected || row.InFlight != 0 || int(row.Admitted) != row.Requests {
			return fmt.Errorf("request conservation broken: offered %d admitted %d injected %d completed %d in-flight %d",
				row.Requests, row.Admitted, row.Injected, row.Completed, row.InFlight)
		}
		return nil
	})
}

// fillSojourns completes a ServeRow the way the unexported
// experiments.ServeRow.fillSojourns does.
func fillSojourns(row *experiments.ServeRow, sojourns []sim.Time, makespan sim.Time) {
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	row.Makespan = makespan
	row.P50 = core.Percentile(sojourns, 0.50)
	row.P99 = core.Percentile(sojourns, 0.99)
	row.P999 = core.Percentile(sojourns, 0.999)
	row.GoodputRps = float64(row.Completed) / makespan.Seconds()
}

func (e *env) serveOursTraced(span int, load float64) (experiments.ServeRow, error) {
	p := serveParams(e.small)
	reqs := serveRequests(e.seed, e.small, load)
	coreReqs := make([]core.Request, len(reqs))
	for i, r := range reqs {
		coreReqs[i] = core.Request{ID: r.ID, At: r.At, Fn: workload.ServeDAG(r.Fanout, r.Depth, p.NodeWork)}
	}
	rt := e.newRuntime(span, e.coreConfig(serveMachine, serveWorkers))
	var st core.ServeStats
	e.spans.in("core.run", span, func() { st = rt.Serve(coreReqs, 0) })
	e.counts.addCore(st.RunStats, rt)

	tlog := rt.TraceLog()
	var err error
	e.spans.in("obs.verify", span, func() { err = tlog.VerifyRequests() })
	if err != nil {
		return experiments.ServeRow{}, fmt.Errorf("request attribution cross-check failed: %w", err)
	}
	e.spans.in("obs.attribution", span, func() { _ = experiments.ServeReqBands(tlog.RequestAttribution()) })

	row := experiments.ServeRow{Requests: len(reqs), Admitted: st.Admitted, Injected: st.Injected,
		Completed: st.Completed, InFlight: st.InFlight}
	sojourns := make([]sim.Time, len(st.Done))
	for i, d := range st.Done {
		sojourns[i] = d.Sojourn()
	}
	fillSojourns(&row, sojourns, st.ExecTime)
	return row, nil
}

func (e *env) serveCharmTraced(span int, load float64) experiments.ServeRow {
	p := serveParams(e.small)
	reqs := serveRequests(e.seed, e.small, load)
	arrivals := make([]bot.ServeArrival, len(reqs))
	arrivedAt := make(map[int64]sim.Time, len(reqs))
	outstanding := make(map[int64]int64, len(reqs))
	var sojourns []sim.Time
	var completed uint64
	for i, r := range reqs {
		arrivals[i] = bot.ServeArrival{At: r.At, Rank: i % serveWorkers, Task: bot.ServeTask(r.ID, r.Fanout, r.Depth)}
		arrivedAt[r.ID] = r.At
		outstanding[r.ID] = 1
	}
	// As experiments.botConfig builds it.
	cfg := bot.Config{
		Machine: experiments.MachineByName(serveMachine),
		Workers: serveWorkers,
		Seed:    e.seed,
		Work:    p.NodeWork,
		MaxTime: 1800 * sim.Second,
		Serve: &bot.Serve{
			Arrivals: arrivals,
			OnTask: func(t bot.Task, children int, now sim.Time) {
				id := bot.ServeTaskID(t)
				outstanding[id] += int64(children) - 1
				if outstanding[id] == 0 {
					completed++
					sojourns = append(sojourns, now-arrivedAt[id])
				}
			},
		},
	}
	var st bot.Stats
	e.spans.in("bot.run", span, func() { st = bot.RunCharm(cfg, bot.Task{}, bot.ServeExpand) })
	e.counts["msg.handled"] += float64(st.Msgs)
	e.counts["msg.retransmits"] += float64(st.Retransmits)

	n := uint64(len(reqs))
	row := experiments.ServeRow{Requests: len(reqs), Admitted: n, Injected: n, Completed: completed, InFlight: n - completed}
	fillSojourns(&row, sojourns, st.Exec)
	return row
}

// counts are the traced child's per-layer work counters, summed over cells.
// They come from the runtimes' public stats and repeat exactly.
type counts map[string]float64

func (c counts) addCore(st core.RunStats, rt *core.Runtime) {
	add := func(name string, v uint64) { c[name] += float64(v) }
	add("sim.events", st.Engine.Events)
	add("sim.handoffs", st.Engine.Handoffs)
	add("sim.callbacks", st.Engine.Callbacks)
	add("sim.cross_shard", st.CrossShard)
	add("rdma.gets", st.Fabric.Gets)
	add("rdma.puts", st.Fabric.Puts)
	add("rdma.atomics", st.Fabric.Atomics)
	add("rdma.local_ops", st.Fabric.LocalOps)
	add("rdma.bytes_in", st.Fabric.BytesIn)
	c["rdma.remote_time_ms"] += float64(st.Fabric.RemoteTime) / 1e6
	add("deque.steals_ok", st.Work.StealsOK)
	add("deque.steals_fail", st.Work.StealsFail)
	add("deque.surplus_stolen", st.Work.SurplusStolen)
	add("uniaddr.migrations_in", st.Stack.MigrationsIn)
	add("uniaddr.evacuations", st.Stack.Evacuations)
	add("uniaddr.bytes_moved", st.Stack.BytesMoved)
	add("uniaddr.conflicts", st.Stack.Conflicts)
	add("remobj.allocs", st.Mem.Allocs)
	add("remobj.remote_frees", st.Mem.RemoteFrees)
	add("remobj.sweeps", st.Mem.Sweeps)
	add("core.tasks", st.Work.Tasks)
	add("core.spawns", st.Work.Spawns)
	add("core.outstanding_joins", st.Join.Outstanding)
	if tlog := rt.TraceLog(); tlog != nil {
		add("obs.events", uint64(len(tlog.Events)))
	}
}
