// Resilience experiment: how gracefully each UTS runtime degrades under
// deterministic fault injection (topo.Perturb). The paper's clusters were
// dedicated and healthy; this sweep probes the schedulers' sensitivity to
// the perturbations real machines exhibit — stragglers (OS noise, thermal
// throttling), per-link latency jitter, and message loss — without giving
// up the simulator's bit-for-bit reproducibility: every scenario is a pure
// function of (perturbation seed, grid coordinates).

package experiments

import (
	"fmt"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// ResilienceRow is one point of the resilience sweep: one system on one
// machine under one perturbation scenario.
type ResilienceRow struct {
	Machine  string
	System   string  // ours / saws / charm / glb
	Tree     string  // UTS tree preset name
	Scenario string  // baseline / straggler / jitter / drop
	Level    float64 // scenario magnitude: straggler fraction, jitter bound, drop probability
	Workers  int
	Nodes    int64
	ExecTime sim.Time
	// Slowdown is ExecTime relative to the same (machine, system) baseline
	// row — the figure of merit: how much of the injected disturbance the
	// scheduler absorbs.
	Slowdown float64
	Drops    uint64 // messages lost (two-sided runtimes only)
	Retrans  uint64 // recovery resends (two-sided runtimes only)
}

// resilienceScenario is one perturbation setting of the sweep grid.
type resilienceScenario struct {
	name  string
	level float64
	// msgOnly restricts the scenario to the two-sided (message-driven)
	// runtimes: drops are injected on the msg layer, so one-sided systems
	// (ours, saws) would run it as an exact baseline duplicate.
	msgOnly bool
	make    func(seed int64, level float64) *topo.Perturb
}

// resilienceScenarios returns the grid's scenario axis, baseline first (the
// Slowdown denominator). Levels are chosen so the mildest setting is within
// normal cluster weather and the strongest is a visibly sick machine.
func resilienceScenarios() []resilienceScenario {
	straggler := func(seed int64, lvl float64) *topo.Perturb {
		return &topo.Perturb{Seed: seed, StragglerFrac: lvl, StragglerFactor: 3}
	}
	jitter := func(seed int64, lvl float64) *topo.Perturb {
		return &topo.Perturb{Seed: seed, LatencyJitter: lvl}
	}
	drop := func(seed int64, lvl float64) *topo.Perturb {
		return &topo.Perturb{Seed: seed, DropProb: lvl}
	}
	return []resilienceScenario{
		{name: "baseline", level: 0, make: func(int64, float64) *topo.Perturb { return nil }},
		{name: "straggler", level: 0.1, make: straggler},
		{name: "straggler", level: 0.3, make: straggler},
		{name: "jitter", level: 0.5, make: jitter},
		{name: "jitter", level: 2.0, make: jitter},
		{name: "drop", level: 0.02, msgOnly: true, make: drop},
		{name: "drop", level: 0.1, msgOnly: true, make: drop},
	}
}

// resilienceSystems lists the compared runtimes; msgBased marks the
// two-sided ones that participate in drop scenarios.
var resilienceSystems = []struct {
	name     string
	msgBased bool
}{
	{"ours", false},
	{"saws", false},
	{"charm", true},
	{"glb", true},
}

// Resilience sweeps perturbation scenarios over every system on the given
// tree. If o.Machine is set the sweep is restricted to that machine;
// otherwise it covers both ITO-A and WISTERIA-O. Each grid point builds its
// own Machine (and thus its own perturbation RNG streams), so the grid runs
// on the shared pool with byte-identical output for any -parallel width.
// An o.Perturb set by the caller is ignored: the scenario axis owns the
// perturbation here.
func Resilience(o Options, tree string, seqDepth int) []ResilienceRow {
	machines := []string{"itoa", "wisteria"}
	if o.Machine != "" {
		machines = []string{o.Machine}
	}
	// Default to a multi-node worker count on both machines: straggler and
	// degraded-link injection act on whole nodes, so a single-node run would
	// degenerate to all-or-nothing.
	o.defaults(144)

	var jobs []Job
	for _, machine := range machines {
		for _, system := range resilienceSystems {
			for _, sc := range resilienceScenarios() {
				if sc.msgOnly && !system.msgBased {
					continue
				}
				sys := system.name
				oj := o.claimObs(sys == "ours")
				oj.Machine = machine
				oj.Perturb = sc.make(o.Seed, sc.level)
				coord := Coord{
					Experiment: "resilience", Tree: tree, System: sys,
					Variant: fmt.Sprintf("%s@%g", sc.name, sc.level),
					Workers: oj.Workers, Seed: oj.Seed,
				}
				jobs = append(jobs, Job{Coord: coord, Run: func() any {
					t := utsTree(oj, tree)
					st := utsRun(oj, coord, sys, t, seqDepth)
					return ResilienceRow{
						Machine: machine, System: sys, Tree: t.Name,
						Scenario: sc.name, Level: sc.level, Workers: oj.Workers,
						Nodes: st.Tasks, ExecTime: st.Exec,
						Drops: st.Dropped, Retrans: st.Retransmits,
					}
				}})
			}
		}
	}
	rows := collect[ResilienceRow](RunJobs(o.Parallel, o.Observer, jobs))

	// Slowdowns need the full grid: each row divides by its (machine,
	// system) baseline, which may have run on a different pool worker.
	base := make(map[[2]string]sim.Time)
	for _, r := range rows {
		if r.Scenario == "baseline" {
			base[[2]string{r.Machine, r.System}] = r.ExecTime
		}
	}
	for i := range rows {
		if b := base[[2]string{rows[i].Machine, rows[i].System}]; b > 0 {
			rows[i].Slowdown = float64(rows[i].ExecTime) / float64(b)
		}
	}
	return rows
}

func (r ResilienceRow) machine() string { return r.Machine }

// ResilienceLayout renders resilience sweep rows.
var ResilienceLayout = Layout[ResilienceRow]{
	Section: func(r []ResilienceRow) string {
		return "resilience_" + r[0].Tree + "_" + machLabel(r)
	},
	Title: func(r []ResilienceRow) string {
		return fmt.Sprintf("Resilience: UTS slowdown under fault injection (%s)", machLabel(r))
	},
	Table: []Col[ResilienceRow]{
		{"machine", "%s", func(r ResilienceRow) any { return r.Machine }},
		{"system", "%s", func(r ResilienceRow) any { return r.System }},
		{"scenario", "%s", func(r ResilienceRow) any { return r.Scenario }},
		{"level", "%g", func(r ResilienceRow) any { return r.Level }},
		{"exec", "%v", func(r ResilienceRow) any { return r.ExecTime }},
		{"slowdown", "%.3f", func(r ResilienceRow) any { return r.Slowdown }},
		{"drops", "%d", func(r ResilienceRow) any { return r.Drops }},
		{"retrans", "%d", func(r ResilienceRow) any { return r.Retrans }},
	},
	TSV: []Col[ResilienceRow]{
		{"machine", "%s", func(r ResilienceRow) any { return r.Machine }},
		{"system", "%s", func(r ResilienceRow) any { return r.System }},
		{"scenario", "%s", func(r ResilienceRow) any { return r.Scenario }},
		{"level", "%g", func(r ResilienceRow) any { return r.Level }},
		{"exec_s", "%.6f", func(r ResilienceRow) any { return r.ExecTime.Seconds() }},
		{"slowdown", "%.4f", func(r ResilienceRow) any { return r.Slowdown }},
		{"drops", "%d", func(r ResilienceRow) any { return r.Drops }},
		{"retrans", "%d", func(r ResilienceRow) any { return r.Retrans }},
	},
	// The worst slowdown any system exhibited under injection.
	Summary: func(rows []ResilienceRow) map[string]float64 {
		var max float64
		for _, row := range rows {
			if row.Slowdown > max {
				max = row.Slowdown
			}
		}
		return map[string]float64{"max_slowdown": max}
	},
}
