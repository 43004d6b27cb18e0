package experiments

import (
	"fmt"
	"sort"

	"contsteal/internal/bot"
	"contsteal/internal/core"
	"contsteal/internal/sim"
	"contsteal/internal/workload"
)

// Open-system serving experiment: sweep offered load across runtimes and
// arrival processes, measure per-request sojourn-time percentiles and
// goodput. Closed-system throughput (Fig. 8) hides scheduler latency — an
// open system exposes it: below the saturation knee a good scheduler keeps
// p99/p999 sojourn near the request's critical path; past the knee queues
// grow and goodput flattens at the service capacity.

// ServeRow is one (system × process × admission × load) cell of the
// saturation sweep.
type ServeRow struct {
	Machine    string
	System     string  // ours / saws / charm / glb
	Process    string  // poisson / mmpp
	Admit      string  // always / token
	Load       float64 // offered load relative to estimated capacity
	OfferedRps float64
	Requests   int // offered requests (before admission)
	Workers    int

	Admitted  uint64
	Rejected  uint64
	Injected  uint64
	Completed uint64
	InFlight  uint64

	P50, P99, P999 sim.Time
	MeanSojourn    sim.Time
	MaxSojourn     sim.Time
	Makespan       sim.Time
	GoodputRps     float64 // completed requests per second of virtual time

	// Bands carries the per-request sojourn attribution aggregated over the
	// p50/p99/p999 tail bands. Only "ours" cells have one (the bot models
	// don't emit request-tagged traces).
	Bands []ServeReqBand `json:",omitempty"`
}

// ServeReqBand aggregates the trace-derived request attribution over one
// sojourn tail band: the completed requests whose sojourn is at or above the
// band's percentile (so "p999" is the slowest ~0.1%). The Delays partition
// Sojourn exactly, per request and therefore per band.
type ServeReqBand struct {
	Band     string   // p50 / p99 / p999
	Requests int      // completed requests in the band
	Sojourn  sim.Time // Σ sojourn over the band (== Delays.Sum())
	core.Delays
}

// DominantDelay names the band's largest non-compute component — the
// actionable answer to "where did the tail latency go" (compute is the
// request's own work; the rest is scheduler- or fabric-induced delay).
// Returns "none" when the band has no delay at all. Ties break toward the
// earlier name in the fixed order, so the label is deterministic.
func (b ServeReqBand) DominantDelay() string {
	name, _ := b.dominant()
	return name
}

// dominant is DominantDelay plus the component's total over the band.
func (b ServeReqBand) dominant() (string, sim.Time) {
	d := b.Delays
	names := [...]string{"admit_wait", "queue", "steal", "fabric", "sched", "join"}
	vals := [...]sim.Time{d.AdmitWait, d.Queue, d.StealXfer, d.FabricWait, d.Sched, d.JoinWait}
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	if vals[best] == 0 {
		return "none", 0
	}
	return names[best], vals[best]
}

// ServeReqBands folds per-request attributions into the three tail bands.
// Exported for `repro analyze -requests`, whose table must agree with the
// sweep's serve_requests TSV digit-for-digit.
func ServeReqBands(atts []core.RequestAttribution) []ServeReqBand {
	if len(atts) == 0 {
		return nil
	}
	sojourns := make([]sim.Time, len(atts))
	for i, a := range atts {
		sojourns[i] = a.Sojourn()
	}
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	bands := []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}}
	out := make([]ServeReqBand, 0, len(bands))
	for _, bd := range bands {
		thr := core.Percentile(sojourns, bd.q)
		b := ServeReqBand{Band: bd.name}
		for _, a := range atts {
			if a.Sojourn() < thr {
				continue
			}
			b.Requests++
			b.Sojourn += a.Sojourn()
			b.Add(a.Delays)
		}
		out = append(out, b)
	}
	return out
}

// ServeParams scopes the sweep grid.
type ServeParams struct {
	Requests  int       // offered arrivals per cell (default 192)
	Loads     []float64 // offered-load multipliers (default 0.1 … 2)
	Systems   []string  // default all four
	Processes []string  // default poisson, mmpp
	Admits    []string  // default always, token
	Horizon   sim.Time  // 0 = drain every cell
	// DAG shape / cost knobs, passed to workload.ServeSpec.
	NodeWork  sim.Time // default 190
	MaxFanout int      // default 3
	MaxDepth  int      // default 3
}

func (p *ServeParams) defaults() {
	if p.Requests <= 0 {
		p.Requests = 192
	}
	if p.Loads == nil {
		p.Loads = []float64{0.1, 0.25, 0.5, 1, 2}
	}
	if p.Systems == nil {
		p.Systems = []string{"ours", "saws", "charm", "glb"}
	}
	if p.Processes == nil {
		p.Processes = []string{"poisson", "mmpp"}
	}
	if p.Admits == nil {
		p.Admits = []string{"always", "token"}
	}
	if p.NodeWork <= 0 {
		p.NodeWork = 190
	}
	if p.MaxFanout <= 0 {
		p.MaxFanout = 3
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
}

// serveSpec builds the arrival spec for one cell.
func (p ServeParams) serveSpec(process string, rps float64, seed int64) workload.ServeSpec {
	return workload.ServeSpec{
		Process:   process,
		RateRps:   rps,
		Requests:  p.Requests,
		Seed:      seed,
		MaxFanout: p.MaxFanout,
		MaxDepth:  p.MaxDepth,
		NodeWork:  p.NodeWork,
	}
}

// CapacityRps estimates the machine's service capacity in requests per
// second: workers / (mean DAG size × per-node cost), where the per-node
// cost includes the runtime's serial spawn/die path like UTSSerialTime.
// Steal traffic and critical-path limits are not modelled, so the true
// knee sits somewhat below load 1.0 — inside the default sweep range.
func (p ServeParams) CapacityRps(o Options) float64 {
	p.defaults()
	spec := p.serveSpec("poisson", 1, o.Seed)
	mach := MachineByName(o.Machine)
	perNode := mach.Compute(p.NodeWork) + mach.SpawnCost + mach.AllocCost + 4*mach.LocalOp
	return float64(o.Workers) / (spec.ExpectedNodes() * perNode.Seconds())
}

// Token-bucket sizing: the bucket refills at admitRate × estimated capacity
// and holds admitBurst tokens, so cells offered more than admitRate of
// capacity shed the excess instead of queueing it.
const (
	admitRate  = 0.9
	admitBurst = 16
)

// admission builds the per-cell admission policy. Policies are stateful;
// every cell gets a fresh one.
func admission(name string, capacityRps float64) *workload.Admission {
	switch name {
	case "always":
		return workload.AlwaysAdmit()
	case "token":
		return workload.TokenBucket(admitBurst, admitRate*capacityRps)
	default:
		panic(fmt.Sprintf("experiments: unknown admission policy %q", name))
	}
}

// fillSojourns completes a row from per-request sojourn times and the run's
// makespan.
func (r *ServeRow) fillSojourns(sojourns []sim.Time, makespan sim.Time) {
	r.Makespan = makespan
	if len(sojourns) == 0 {
		return
	}
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	var sum sim.Time
	for _, s := range sojourns {
		sum += s
	}
	// core.Percentile is the order-statistic rule x_(⌈q·n⌉) — no
	// interpolation, so goldens are byte-stable — shared with the trace-side
	// request tables, which must agree digit-for-digit.
	r.P50 = core.Percentile(sojourns, 0.50)
	r.P99 = core.Percentile(sojourns, 0.99)
	r.P999 = core.Percentile(sojourns, 0.999)
	r.MeanSojourn = sum / sim.Time(len(sojourns))
	r.MaxSojourn = sojourns[len(sojourns)-1]
	if makespan > 0 {
		r.GoodputRps = float64(r.Completed) / makespan.Seconds()
	}
}

// ServeOnce runs one open-system cell and returns its row. The arrival
// trace and admission decisions are generated ahead of the run from the
// cell's seed, so the identical admitted trace is offered to every system.
func ServeOnce(o Options, p ServeParams, system, process, admit string, load float64) ServeRow {
	o.defaults(36)
	p.defaults()
	capacity := p.CapacityRps(o)
	offered := load * capacity
	spec := p.serveSpec(process, offered, o.Seed)
	reqs := workload.GenServe(spec)

	adm := admission(admit, capacity)
	admitted := make([]workload.ServeReq, 0, len(reqs))
	for _, r := range reqs {
		if adm.Admit(r.At) {
			admitted = append(admitted, r)
		}
	}

	row := ServeRow{
		Machine: o.Machine, System: system, Process: process, Admit: admit,
		Load: load, OfferedRps: offered, Requests: len(reqs), Workers: o.Workers,
		Admitted: uint64(len(admitted)), Rejected: uint64(len(reqs) - len(admitted)),
	}

	if system == "ours" {
		coreReqs := make([]core.Request, len(admitted))
		for i, r := range admitted {
			coreReqs[i] = core.Request{
				ID: r.ID, At: r.At,
				Fn: workload.ServeDAG(r.Fanout, r.Depth, spec.NodeWork),
			}
		}
		var st core.ServeStats
		// The runtime attributes each request as it closes, traced or not.
		rt := runCore(o, greedy, nil, func(rt *core.Runtime) core.RunStats {
			st = rt.Serve(coreReqs, p.Horizon)
			return st.RunStats
		})
		row.Injected = st.Injected
		row.Completed = st.Completed
		row.InFlight = st.InFlight
		sojourns := make([]sim.Time, len(st.Done))
		for i, d := range st.Done {
			sojourns[i] = d.Sojourn()
		}
		row.fillSojourns(sojourns, st.ExecTime)
		atts, err := rt.AttributeRequests()
		if err != nil {
			panic(fmt.Sprintf("experiments: serve cell %s/%s/%s load %g: request attribution cross-check failed: %v",
				system, process, admit, load, err))
		}
		row.Bands = ServeReqBands(atts)
		return row
	}

	arrivals := make([]bot.ServeArrival, len(admitted))
	arrivedAt := make(map[int64]sim.Time, len(admitted))
	outstanding := make(map[int64]int64, len(admitted))
	var sojourns []sim.Time
	var completed uint64
	for i, r := range admitted {
		arrivals[i] = bot.ServeArrival{
			At:   r.At,
			Rank: i % o.Workers,
			Task: bot.ServeTask(r.ID, r.Fanout, r.Depth),
		}
		arrivedAt[r.ID] = r.At
		outstanding[r.ID] = 1 // the injected root task
		// Every admitted arrival before the horizon fires exactly once; the
		// rest stay in flight by definition (they never entered the system).
		if p.Horizon <= 0 || r.At < p.Horizon {
			row.Injected++
		}
	}
	cfg := botConfig(o)
	cfg.Work = p.NodeWork
	cfg.Serve = &bot.Serve{
		Arrivals: arrivals,
		Horizon:  p.Horizon,
		OnTask: func(t bot.Task, children int, now sim.Time) {
			id := bot.ServeTaskID(t)
			outstanding[id] += int64(children) - 1
			if outstanding[id] == 0 {
				completed++
				sojourns = append(sojourns, now-arrivedAt[id])
			}
		},
	}
	st := bot.Run(system, cfg, bot.Task{}, bot.ServeExpand)
	row.Completed = completed
	row.InFlight = row.Admitted - completed
	row.fillSojourns(sojourns, st.Exec)
	return row
}

// Serve sweeps the full (system × process × admission × load) grid on the
// sweep pool and returns rows in grid order. The first "ours" cell is the
// observed run (only the fork-join runtime produces traces).
func Serve(o Options, p ServeParams) []ServeRow {
	o.defaults(36)
	p.defaults()
	var jobs []Job
	for _, system := range p.Systems {
		for _, process := range p.Processes {
			for _, admit := range p.Admits {
				for _, load := range p.Loads {
					jobs = append(jobs, Job{
						Coord: Coord{Experiment: "serve", System: system, Bench: process,
							Variant: admit, N: int(load * 100), Workers: o.Workers, Seed: o.Seed},
						Baseline: system != "ours",
						Run:      func(o Options) any { return ServeOnce(o, p, system, process, admit, load) },
					})
				}
			}
		}
	}
	return collect[ServeRow](RunJobs(o, jobs))
}

func (r ServeRow) machine() string { return r.Machine }

// ServeLayout renders open-system serving rows.
var ServeLayout = Layout[ServeRow]{
	Section: func(r []ServeRow) string { return "serve_" + machLabel(r) },
	Title: func(r []ServeRow) string {
		return "Serving: open-system sojourn latency and goodput on " + machLabel(r)
	},
	Table: []Col[ServeRow]{
		{"system", "%s", func(r ServeRow) any { return r.System }},
		{"arrivals", "%s", func(r ServeRow) any { return r.Process }},
		{"admit", "%s", func(r ServeRow) any { return r.Admit }},
		{"load", "%g", func(r ServeRow) any { return r.Load }},
		{"offered(rps)", "%.0f", func(r ServeRow) any { return r.OfferedRps }},
		{"adm", "%d", func(r ServeRow) any { return r.Admitted }},
		{"rej", "%d", func(r ServeRow) any { return r.Rejected }},
		{"done", "%d", func(r ServeRow) any { return r.Completed }},
		{"inflight", "%d", func(r ServeRow) any { return r.InFlight }},
		{"p50", "%v", func(r ServeRow) any { return r.P50 }},
		{"p99", "%v", func(r ServeRow) any { return r.P99 }},
		{"p999", "%v", func(r ServeRow) any { return r.P999 }},
		{"goodput(rps)", "%.0f", func(r ServeRow) any { return r.GoodputRps }},
	},
	TSV: append(serveCellCols, []Col[ServeRow]{
		{"offered_rps", "%.3f", func(r ServeRow) any { return r.OfferedRps }},
		{"requests", "%d", func(r ServeRow) any { return r.Requests }},
		{"admitted", "%d", func(r ServeRow) any { return r.Admitted }},
		{"rejected", "%d", func(r ServeRow) any { return r.Rejected }},
		{"injected", "%d", func(r ServeRow) any { return r.Injected }},
		{"completed", "%d", func(r ServeRow) any { return r.Completed }},
		{"inflight", "%d", func(r ServeRow) any { return r.InFlight }},
		{"p50_ns", "%d", func(r ServeRow) any { return int64(r.P50) }},
		{"p99_ns", "%d", func(r ServeRow) any { return int64(r.P99) }},
		{"p999_ns", "%d", func(r ServeRow) any { return int64(r.P999) }},
		{"mean_ns", "%d", func(r ServeRow) any { return int64(r.MeanSojourn) }},
		{"max_ns", "%d", func(r ServeRow) any { return int64(r.MaxSojourn) }},
		{"makespan_s", "%.6f", func(r ServeRow) any { return r.Makespan.Seconds() }},
		{"goodput_rps", "%.3f", func(r ServeRow) any { return r.GoodputRps }},
	}...),
	Extra: func(rows []ServeRow) []Series {
		if s, ok := serveRequestSeries(rows); ok {
			return []Series{s}
		}
		return nil
	},
	Summary: serveSummary,
}

// serveCellCols name a grid cell; both serve series start with them.
var serveCellCols = []Col[ServeRow]{
	{"machine", "%s", func(r ServeRow) any { return r.Machine }},
	{"system", "%s", func(r ServeRow) any { return r.System }},
	{"process", "%s", func(r ServeRow) any { return r.Process }},
	{"admit", "%s", func(r ServeRow) any { return r.Admit }},
	{"load", "%g", func(r ServeRow) any { return r.Load }},
}

// serveBandCols are the columns of the per-request tail-attribution series.
// The component columns partition sojourn_ns exactly on every line — the
// conservation contract is visible in the fixture itself.
var serveBandCols = []Col[ServeReqBand]{
	{"band", "%s", func(b ServeReqBand) any { return b.Band }},
	{"requests", "%d", func(b ServeReqBand) any { return b.Requests }},
	{"sojourn_ns", "%d", func(b ServeReqBand) any { return int64(b.Sojourn) }},
	{"admit_wait_ns", "%d", func(b ServeReqBand) any { return int64(b.AdmitWait) }},
	{"queue_ns", "%d", func(b ServeReqBand) any { return int64(b.Queue) }},
	{"compute_ns", "%d", func(b ServeReqBand) any { return int64(b.Compute) }},
	{"steal_ns", "%d", func(b ServeReqBand) any { return int64(b.StealXfer) }},
	{"fabric_ns", "%d", func(b ServeReqBand) any { return int64(b.FabricWait) }},
	{"sched_ns", "%d", func(b ServeReqBand) any { return int64(b.Sched) }},
	{"join_ns", "%d", func(b ServeReqBand) any { return int64(b.JoinWait) }},
	{"dominant", "%s", func(b ServeReqBand) any { return b.DominantDelay() }},
}

// serveRequestSeries renders the per-request tail-attribution bands of the
// sweep as their own TSV series: one line per ours-cell × band. ok is false
// when no row carries bands (request tracing off, or a bot-only sweep).
func serveRequestSeries(rows []ServeRow) (Series, bool) {
	s := Series{Name: "serve_requests_" + machLabel(rows),
		Header: append(heads(serveCellCols), heads(serveBandCols)...)}
	for _, row := range rows {
		for _, b := range row.Bands {
			s.Cells = append(s.Cells, append(cells(serveCellCols, row), cells(serveBandCols, b)...))
		}
	}
	return s, len(s.Cells) > 0
}

// serveSummary reports the saturation throughput (the best goodput any cell
// of the sweep sustained) and, when request attribution ran, the tail-latency
// headline: the worst p999 sojourn among "ours" cells plus the share of that
// cell's p999-band sojourn going to its dominant delay component (the
// component's name is embedded in the key).
func serveSummary(r []ServeRow) map[string]float64 {
	var max float64
	worst := -1
	for i, row := range r {
		if row.GoodputRps > max {
			max = row.GoodputRps
		}
		if len(row.Bands) > 0 && (worst < 0 || row.P999 > r[worst].P999) {
			worst = i
		}
	}
	out := map[string]float64{"saturation_goodput_rps": max}
	if worst >= 0 {
		row := r[worst]
		out["p999_sojourn_us"] = float64(row.P999) / 1e3
		for _, b := range row.Bands {
			if b.Band == "p999" && b.Sojourn > 0 {
				name, v := b.dominant()
				out["p999_dominant_share_"+name] = float64(v) / float64(b.Sojourn)
			}
		}
	}
	return out
}
