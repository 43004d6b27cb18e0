// Steal-policy zoo: a fig8-style comparison of victim-selection and
// steal-amount policies on a task-graph (dataflow) workload, across
// machines and perturbation scenarios. The paper evaluates one policy
// (uniform random victims, steal-one); "Distributed Work Stealing in a
// Task-Based Dataflow Runtime" and "Work Stealing Simulator" (PAPERS.md)
// study exactly these axes — this sweep reproduces that study shape on our
// runtime. Every cell runs the same seeded DAG, so the checksum column
// doubles as a correctness oracle: all rows of a sweep must agree.

package experiments

import (
	"fmt"

	"contsteal/internal/core"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// StealZooRow is one point of the steal-policy sweep: one policy on one
// machine under one perturbation scenario.
type StealZooRow struct {
	Machine  string
	Policy   string // steal policy name (core.StealPolicyNames order)
	Shape    string // dag workload shape
	Scenario string // baseline / straggler / jitter
	Level    float64
	Workers  int
	Checksum int64 // DAG checksum — identical on every row of the sweep
	ExecTime sim.Time
	// Slowdown is ExecTime relative to the uniform (paper) policy under the
	// same (machine, scenario, level) — the figure of merit: below 1.0 the
	// policy beats uniform stealing in that weather.
	Slowdown   float64
	StealsOK   uint64
	StealsFail uint64
	Migrations uint64 // stacks that moved between ranks
	Surplus    uint64 // entries requeued by steal-half batches
}

// stealZooScenario is one perturbation setting of the sweep grid.
type stealZooScenario struct {
	name  string
	level float64
	make  func(seed int64, level float64) *topo.Perturb
}

// stealZooScenarios returns the scenario axis, baseline first (the Slowdown
// denominator is per-scenario, but baseline-first keeps TSV ordering
// readable). Drop scenarios are omitted: the one-sided runtime has no
// message layer to drop from.
func stealZooScenarios() []stealZooScenario {
	return []stealZooScenario{
		{name: "baseline", level: 0, make: func(int64, float64) *topo.Perturb { return nil }},
		{name: "straggler", level: 0.2, make: func(seed int64, lvl float64) *topo.Perturb {
			return &topo.Perturb{Seed: seed, StragglerFrac: lvl, StragglerFactor: 3}
		}},
		{name: "jitter", level: 1.0, make: func(seed int64, lvl float64) *topo.Perturb {
			return &topo.Perturb{Seed: seed, LatencyJitter: lvl}
		}},
	}
}

// StealZoo sweeps steal policy × machine × perturbation scenario on the dag
// workload (shape with N×N-scale grid; see workload.DAGParams). If
// o.Machine is set the sweep is restricted to that machine; otherwise it
// covers both ITO-A and WISTERIA-O. Each grid point builds its own Machine
// (own perturbation RNG streams), so the grid runs on the shared pool with
// byte-identical output at any -parallel width. o.Steal is ignored: the
// policy axis owns it here.
func StealZoo(o Options, shape string, n int) []StealZooRow {
	machines := []string{"itoa", "wisteria"}
	if o.Machine != "" {
		machines = []string{o.Machine}
	}
	// Multi-node worker counts by default (two ITO-A nodes): the hier and
	// locality policies only differ from uniform when topology and placement
	// matter.
	o.defaults(72)
	d := workload.DAGParams{Shape: shape, N: n, Steps: n, Seed: o.Seed}
	if err := d.Validate(); err != nil {
		panic(err)
	}

	want := d.SerialChecksum()
	var jobs []Job
	for _, machine := range machines {
		for _, policy := range core.StealPolicyNames() {
			for _, sc := range stealZooScenarios() {
				oj := o.claimObs(true)
				oj.Machine = machine
				oj.Steal = policy
				oj.Perturb = sc.make(o.Seed, sc.level)
				coord := Coord{
					Experiment: "stealzoo", Tree: shape, System: policy,
					Variant: fmt.Sprintf("%s@%g", sc.name, sc.level),
					Workers: oj.Workers, Seed: oj.Seed,
				}
				jobs = append(jobs, Job{Coord: coord, Run: func() any {
					ret, st := runTask(oj, coord, greedy, nil, d.Task())
					row := StealZooRow{
						Machine: machine, Policy: policy, Shape: d.Shape,
						Scenario: sc.name, Level: sc.level, Workers: oj.Workers,
						Checksum: core.RetInt64(ret), ExecTime: st.ExecTime,
						StealsOK: st.Work.StealsOK, StealsFail: st.Work.StealsFail,
						Migrations: st.Stack.MigrationsIn,
						Surplus:    st.Work.SurplusStolen,
					}
					if row.Checksum != want {
						panic(fmt.Sprintf("experiments: stealzoo %s/%s/%s checksum %d != oracle %d",
							machine, policy, sc.name, row.Checksum, want))
					}
					return row
				}})
			}
		}
	}
	rows := collect[StealZooRow](RunJobs(o.Parallel, o.Observer, jobs))

	// Slowdowns need the full grid: each row divides by the uniform-policy
	// row of its own (machine, scenario, level) cell.
	base := make(map[[3]string]sim.Time)
	for _, r := range rows {
		if r.Policy == "uniform" {
			base[[3]string{r.Machine, r.Scenario, fmt.Sprint(r.Level)}] = r.ExecTime
		}
	}
	for i := range rows {
		if b := base[[3]string{rows[i].Machine, rows[i].Scenario, fmt.Sprint(rows[i].Level)}]; b > 0 {
			rows[i].Slowdown = float64(rows[i].ExecTime) / float64(b)
		}
	}
	return rows
}

func (r StealZooRow) machine() string { return r.Machine }

// StealZooLayout renders steal-policy sweep rows.
var StealZooLayout = Layout[StealZooRow]{
	Section: func(r []StealZooRow) string { return "stealzoo_" + machLabel(r) },
	Title: func(r []StealZooRow) string {
		return fmt.Sprintf("Steal-policy zoo: %s DAG slowdown vs uniform stealing (%s)", r[0].Shape, machLabel(r))
	},
	Table: []Col[StealZooRow]{
		{"machine", "%s", func(r StealZooRow) any { return r.Machine }},
		{"policy", "%s", func(r StealZooRow) any { return r.Policy }},
		{"scenario", "%s", func(r StealZooRow) any { return r.Scenario }},
		{"level", "%g", func(r StealZooRow) any { return r.Level }},
		{"exec", "%v", func(r StealZooRow) any { return r.ExecTime }},
		{"slowdown", "%.3f", func(r StealZooRow) any { return r.Slowdown }},
		{"steals", "%d", func(r StealZooRow) any { return r.StealsOK }},
		{"fails", "%d", func(r StealZooRow) any { return r.StealsFail }},
		{"migr", "%d", func(r StealZooRow) any { return r.Migrations }},
		{"surplus", "%d", func(r StealZooRow) any { return r.Surplus }},
	},
	TSV: []Col[StealZooRow]{
		{"machine", "%s", func(r StealZooRow) any { return r.Machine }},
		{"policy", "%s", func(r StealZooRow) any { return r.Policy }},
		{"shape", "%s", func(r StealZooRow) any { return r.Shape }},
		{"scenario", "%s", func(r StealZooRow) any { return r.Scenario }},
		{"level", "%g", func(r StealZooRow) any { return r.Level }},
		{"checksum", "%d", func(r StealZooRow) any { return r.Checksum }},
		{"exec_s", "%.6f", func(r StealZooRow) any { return r.ExecTime.Seconds() }},
		{"slowdown", "%.4f", func(r StealZooRow) any { return r.Slowdown }},
		{"steals_ok", "%d", func(r StealZooRow) any { return r.StealsOK }},
		{"steals_fail", "%d", func(r StealZooRow) any { return r.StealsFail }},
		{"migrations", "%d", func(r StealZooRow) any { return r.Migrations }},
		{"surplus", "%d", func(r StealZooRow) any { return r.Surplus }},
	},
	// The best (lowest) slowdown any non-uniform policy reached under
	// perturbation, and the worst overall.
	Summary: func(rows []StealZooRow) map[string]float64 {
		best, worst := 0.0, 0.0
		for _, row := range rows {
			if row.Slowdown == 0 {
				continue
			}
			if row.Policy != "uniform" && row.Scenario != "baseline" &&
				(best == 0 || row.Slowdown < best) {
				best = row.Slowdown
			}
			if row.Slowdown > worst {
				worst = row.Slowdown
			}
		}
		return map[string]float64{"best_policy_slowdown": best, "max_slowdown": worst}
	},
}
