package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloadRun collects everything the parent's children reported for one
// workload.
type workloadRun struct {
	def     workloadDef
	setups  []childResult // the first child of each setup batch
	setupS  []float64     // mean child life per batch
	oracle  []int64
	repeats []childResult
	crashed []string // children that ended without a result line
	traced  *childResult
	probe   *childResult // the cells once more at def.procsProbe Ps (traced runs)
}

const (
	// One setup_s sample is the mean life of a batch of cold setup children:
	// as many as fit in setupBatch, at least one. On the two workloads whose
	// setup is a few milliseconds of process start, single spawns are bimodal
	// on this host and their median jumps between the modes; a batch mean
	// does not. Batches repeat setupRuns times, and up to setupMax times while
	// setupBudget lasts; setup_s is the fastest batch.
	setupRuns   = 3
	setupMax    = 20
	setupBatch  = 100 * time.Millisecond
	setupBudget = 2 * time.Second
	// maxRepeats caps a -seconds run whose children finish improbably fast.
	maxRepeats = 64
)

func selectWorkloads(name string) ([]*workloadRun, error) {
	var runs []*workloadRun
	for _, w := range workloads {
		if name == "all" || name == w.name {
			runs = append(runs, &workloadRun{def: w})
		}
	}
	if len(runs) == 0 {
		_, err := workloadByName(name)
		return nil, err
	}
	return runs, nil
}

func runParent(o options) error {
	// -seconds is each workload's share of the whole invocation, setup and
	// the traced children included, so that a run ends when it was told to
	// however slow the host is at the moment.
	start := time.Now()
	root, err := repoRoot()
	if err != nil {
		return err
	}
	runs, err := selectWorkloads(o.workload)
	if err != nil {
		return err
	}
	pinned, err := readExpected(root)
	if err != nil {
		return err
	}

	for _, wr := range runs {
		if err := wr.setup(o); err != nil {
			return err
		}
	}

	// The traced children go before the repeats so that the repeats fill
	// what is left of -seconds; nothing they do survives into a repeat.
	var micro map[string]float64
	floor := minRepeats
	if o.trace {
		floor = tracedMinRepeats
		for _, wr := range runs {
			wr.traced = wr.spawnCells(o, "traced")
			if wr.def.procsProbe > 0 {
				po := o
				po.procs = wr.def.procsProbe
				wr.probe = wr.spawnCells(po, "run")
			}
		}
		res, err := spawn(o, "micro", "", nil)
		if err != nil {
			return err
		}
		micro = res.Micro
	}

	// Repeats are interleaved round-robin across workloads (A B C D A B C D
	// …) so that host drift hits all of them equally. A -seconds run stops
	// before the round that would not end by the deadline.
	deadline := start.Add(time.Duration(o.seconds) * time.Second * time.Duration(len(runs)))
	var longest time.Duration
	for r := 0; ; r++ {
		if o.seconds > 0 {
			if r >= maxRepeats || (r >= floor && time.Now().Add(longest).After(deadline)) {
				break
			}
		} else if r >= o.repeats {
			break
		}
		round := time.Now()
		for _, wr := range runs {
			if res := wr.spawnCells(o, "run"); res != nil {
				wr.repeats = append(wr.repeats, *res)
			}
		}
		longest = max(longest, time.Since(round))
	}

	out := results{Schema: resultsSchema, Seed: o.seed, Host: hostInfo()}
	for _, wr := range runs {
		var golden []string
		if wr.def.name == "uts_fig9" && o.seed == goldenSeed && !o.small {
			if golden, err = readGoldenRows(root); err != nil {
				return err
			}
		}
		out.Workloads = append(out.Workloads, wr.evaluate(o, pinned.lookup(o, wr.def.name), golden, micro))
	}

	printReport(os.Stdout, out)
	if err := writeOutputs(o.out, out, runs); err != nil {
		return err
	}
	failed := 0
	for _, w := range out.Workloads {
		// The driver reads the last line of a one-workload run.
		if err := json.NewEncoder(os.Stdout).Encode(w.driverLine(o.trace)); err != nil {
			return err
		}
		failed += w.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed a correctness check", failed)
	}
	return nil
}

// spawnCells runs one child that executes the workload's cells; a child that
// ends without a result is recorded as crashed and yields nil.
func (wr *workloadRun) spawnCells(o options, kind string) *childResult {
	res, err := spawn(o, kind, wr.def.name, wr.oracle)
	if err != nil {
		wr.crashed = append(wr.crashed, err.Error())
		return nil
	}
	return &res
}

// setup runs the workload's setup in cold children (the UTS oracle would
// otherwise find workload's process-global count memo warm on its second
// run). setup_s is the median of the children's whole lives: everything a
// run pays before measuring can begin — process start, flag parsing, input
// generation and the serial oracle.
func (wr *workloadRun) setup(o options) error {
	start := time.Now()
	for len(wr.setupS) < setupRuns || (len(wr.setupS) < setupMax && time.Since(start) < setupBudget) {
		batch := time.Now()
		n := 0
		for ; n == 0 || time.Since(batch) < setupBatch; n++ {
			res, err := spawn(o, "setup", wr.def.name, nil)
			if err != nil {
				return err
			}
			if wr.oracle != nil && !reflect.DeepEqual(wr.oracle, res.Oracle) {
				return fmt.Errorf("%s: setup oracle changed between runs: %v then %v", wr.def.name, wr.oracle, res.Oracle)
			}
			wr.oracle = res.Oracle
			if n == 0 {
				wr.setups = append(wr.setups, res)
			}
		}
		wr.setupS = append(wr.setupS, time.Since(batch).Seconds()/float64(n))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------------

const resultsSchema = "contsteal-benchmark/v1"

// goldenSeed is the seed the committed fig9 golden TSV was generated with.
const goldenSeed = 7

type hostFacts struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
}

func hostInfo() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// metricValue is one reported number. Host metrics carry the distribution of
// their samples; exact ones have N == 0. An end-to-end host metric's Value is
// the best sample, a per-layer one's the median.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Kind   string  `json:"kind"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	dist
}

type results struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Host      hostFacts        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func (r results) workload(name string) (workloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

type workloadResult struct {
	Name       string `json:"name"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Repeats    int    `json:"repeats"`
	// One operation is one cell of one repeat (or of the traced child).
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Failures  []string      `json:"failures,omitempty"`
	Pinned    bool          `json:"pinned"` // digests were checked against expected.json
	EndToEnd  []metricValue `json:"end_to_end"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	Digests   []digest      `json:"digests"`
}

// diffDigest names the first field in which two digests differ.
func diffDigest(want, got digest) string {
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if w, g := wv.Field(i).Interface(), gv.Field(i).Interface(); w != g {
			return fmt.Sprintf("cell %s field %s: want %v, got %v", want.Cell, wv.Type().Field(i).Name, w, g)
		}
	}
	return ""
}

func (wr *workloadRun) evaluate(o options, pinned []digest, golden []string, micro map[string]float64) workloadResult {
	res := workloadResult{Name: wr.def.name, GOMAXPROCS: wr.def.gomaxprocs, Pinned: pinned != nil}
	fail := func(n int, format string, args ...any) {
		res.Failed += n
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	// A child that died took all its cells with it.
	for _, msg := range wr.crashed {
		res.Attempted += wr.def.cells
		fail(wr.def.cells, "%s", msg)
	}

	// The first clean repeat is the reference every other run must equal.
	var ref []cellResult
	for _, c := range wr.repeats {
		if cleanCells(c.Cells) {
			ref = c.Cells
			break
		}
	}
	check := func(label string, cells []cellResult) bool {
		ok := true
		for i, c := range cells {
			res.Attempted++
			switch {
			case c.Failed != "":
				fail(1, "%s cell %s: %s", label, c.Digest.Cell, c.Failed)
			case ref != nil && i < len(ref) && c.Digest != ref[i].Digest:
				fail(1, "%s differs from the first repeat: %s", label, diffDigest(ref[i].Digest, c.Digest))
			default:
				continue
			}
			ok = false
		}
		return ok
	}
	var good []childResult
	for i, c := range wr.repeats {
		if check(fmt.Sprintf("repeat %d", i+1), c.Cells) {
			good = append(good, c)
		}
	}
	if wr.traced != nil {
		// Tracing only observes: it may not move a simulated tick.
		check("traced run", wr.traced.Cells)
	}
	if wr.probe != nil {
		// Nor may the number of Ps the host gives the simulator.
		check(fmt.Sprintf("GOMAXPROCS %d run", wr.probe.GOMAXPROCS), wr.probe.Cells)
	}
	res.Repeats = len(good)

	if ref != nil {
		for _, c := range ref {
			res.Digests = append(res.Digests, c.Digest)
		}
		if pinned != nil {
			if len(pinned) != len(ref) {
				fail(len(ref), "expected.json holds %d cells for seed %d, the run has %d", len(pinned), o.seed, len(ref))
			} else {
				for i := range ref {
					if d := diffDigest(pinned[i], ref[i].Digest); d != "" {
						fail(1, "seed %d digest differs from expected.json: %s", o.seed, d)
					}
				}
			}
		}
		for i, want := range golden {
			if i < len(ref) && ref[i].Row != want {
				fail(1, "cell %s differs from the fig9 golden TSV: want %q, got %q", ref[i].Digest.Cell, want, ref[i].Row)
			}
		}
	}

	res.EndToEnd = wr.endToEnd(ref, good)
	if wr.traced != nil {
		res.PerLayer = wr.perLayer(good, micro)
	}
	return res
}

func cleanCells(cells []cellResult) bool {
	for _, c := range cells {
		if c.Failed != "" {
			return false
		}
	}
	return len(cells) > 0
}

func samples(rs []childResult, f func(childResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func totalTasks(cells []cellResult) float64 {
	var n int64
	for _, c := range cells {
		n += c.Digest.Tasks
	}
	return float64(n)
}

// serve_open's single-cell simulated metrics: latencyCell is ours@0.5 — below
// the knee, where sojourn is a latency — and capacityCell ours@2, saturated,
// where goodput and efficiency are a capacity.
const latencyCell, capacityCell = 0, 1

func (wr *workloadRun) endToEnd(ref []cellResult, good []childResult) []metricValue {
	var out []metricValue
	for _, m := range endToEnd {
		if m.Only != "" && m.Only != wr.def.name {
			continue
		}
		v := metricValue{Name: m.Name, Unit: m.Unit, Kind: m.Kind, Better: m.Better, Bound: m.Bound}
		// Interference from the host's other tenants only ever adds time:
		// compute slows up to 2× for minutes on end with no steal accounted,
		// so the median of a run's repeats follows the neighbours (its
		// spread between runs of one commit was 30–75 %) while the best
		// repeat stays within a few percent of the program's own cost.
		host := func(s []float64) { v.dist = newDist(s); v.Value = v.best(m.Better) }
		switch m.Name {
		case "setup_s":
			host(wr.setupS)
		case "wall_s":
			host(samples(good, func(c childResult) float64 { return c.WallS }))
		case "tasks_per_host_s":
			host(samples(good, func(c childResult) float64 { return totalTasks(c.Cells) / c.WallS }))
		case "alloc_mb":
			host(samples(good, func(c childResult) float64 { return c.AllocMB }))
		}
		if ref != nil {
			switch m.Name {
			case "sim_exec_ms":
				for _, c := range ref {
					v.Value += float64(c.Digest.ExecNs) / 1e6
				}
			case "sim_efficiency":
				v.Value = ref[wr.def.efficiencyCell].Efficiency
			case "sim_p99_sojourn_us":
				v.Value = float64(ref[latencyCell].Digest.P99Ns) / 1e3
			case "sim_goodput_rps":
				v.Value = ref[capacityCell].GoodputRps
			}
		}
		out = append(out, v)
	}
	return out
}

// perLayer assembles the layer table for one workload: counts and spans from
// the traced child, host facts from the untraced repeats, unit costs from the
// micro child. A metric a workload does not exercise reads 0.
func (wr *workloadRun) perLayer(good []childResult, micro map[string]float64) []metricValue {
	t := wr.traced
	vals := map[string]float64{}
	for k, v := range t.Counts {
		vals[k] = v
	}
	for k, v := range micro {
		vals[k] = v
	}
	for _, name := range []string{"core.new", "core.run", "bot.run", "obs.verify", "obs.attribution"} {
		vals[name+"_s"] = spanTotal(t.Spans, name)
	}
	if attempts := vals["deque.steals_ok"] + vals["deque.steals_fail"]; attempts > 0 {
		vals["deque.steal_success_ratio"] = vals["deque.steals_ok"] / attempts
	}

	dists := map[string]dist{}
	host := func(name string, f func(childResult) float64) {
		if len(good) > 0 {
			dists[name] = newDist(samples(good, f))
			vals[name] = dists[name].Median
		}
	}
	if len(wr.setups) > 0 {
		dists["workload.gen_s"] = newDist(samples(wr.setups, func(c childResult) float64 { return spanTotal(c.Spans, "workload.gen") }))
		vals["workload.gen_s"] = dists["workload.gen_s"].Median
	}
	host("host.peak_rss_mb", func(c childResult) float64 { return c.PeakRSSMB })
	host("host.cpu_s", func(c childResult) float64 { return c.CPUS })
	host("host.mallocs", func(c childResult) float64 { return float64(c.Mallocs) })
	host("host.gc_count", func(c childResult) float64 { return float64(c.GCCount) })
	if wr.probe != nil {
		vals["host.wall_p2_s"] = wr.probe.WallS
	}
	if wr.def.name == "uts_fig9" {
		host("workload.cold_cell_s", func(c childResult) float64 { return c.Cells[0].WallS })
		host("workload.warm_cell_s", func(c childResult) float64 { return c.Cells[1].WallS })
	}
	// Engine throughput over the cells that run on core (bot exposes no
	// event count): counts from the traced child, which repeat exactly, over
	// the untraced wall of the same cells.
	host("sim.events_per_s", func(c childResult) float64 {
		var wall float64
		for _, cell := range c.Cells {
			if cell.Core {
				wall += cell.WallS
			}
		}
		return vals["sim.events"] / wall
	})
	if len(good) > 0 {
		wall := newDist(samples(good, func(c childResult) float64 { return c.WallS })).Median
		vals["sim.handoff_share"] = vals["sim.handoffs"] * vals["sim.handoff_ns"] / 1e9 / wall
		vals["sim.callback_share"] = vals["sim.callbacks"] * vals["sim.callback_ns"] / 1e9 / wall
		vals["obs.trace_overhead_frac"] = (t.WallS - wall) / wall
	}

	var out []metricValue
	for _, m := range layerMetrics {
		out = append(out, metricValue{Name: m.Name, Unit: m.Unit, Kind: m.Kind, Better: m.Better,
			Value: vals[m.Name], dist: dists[m.Name]})
	}
	return out
}

// driverLine is the benchmark contract's result object: the end-to-end
// metrics defined on every workload (BENCHMARK.json's end_to_end), or with
// tracing the per-layer ones.
func (w workloadResult) driverLine(traced bool) map[string]any {
	metrics := map[string]any{}
	list := w.EndToEnd
	if traced {
		list = w.PerLayer
	}
	for _, m := range list {
		if e, ok := e2eByName(m.Name); ok && e.Only != "" {
			continue // not defined on every workload: printed and compared, not sent to the driver
		}
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	attempted := w.Attempted
	if attempted == 0 {
		attempted = 1
	}
	return map[string]any{"correct": w.Failed == 0, "attempted": attempted, "failed": w.Failed, "metrics": metrics}
}

func e2eByName(name string) (e2eMetric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return e2eMetric{}, false
}

// ---------------------------------------------------------------------------
// Pinned digests and the fig9 golden.
// ---------------------------------------------------------------------------

// repoRoot finds the module root above the working directory: the benchmark
// reads expected.json and the fig9 golden relative to it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run the benchmark from inside the repository")
		}
		dir = parent
	}
}

// expectedFile pins the simulated digests of every cell, per seed. It is the
// "a faster simulator must leave every simulated statistic identical" gate.
type expectedFile struct {
	Seeds map[string]map[string][]digest `json:"seeds"`
}

func expectedPath(root string) string { return filepath.Join(root, "benchmark", "expected.json") }

func readExpected(root string) (expectedFile, error) {
	var f expectedFile
	data, err := os.ReadFile(expectedPath(root))
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", expectedPath(root), err)
	}
	return f, nil
}

// lookup returns the pinned digests for the run's seed, nil if the seed is
// not pinned (then only oracles and repeat-determinism hold the run).
func (f expectedFile) lookup(o options, workload string) []digest {
	if o.small {
		return nil
	}
	return f.Seeds[strconv.FormatInt(o.seed, 10)][workload]
}

func updateExpected(o options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	f, err := readExpected(root)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if f.Seeds == nil {
		f.Seeds = map[string]map[string][]digest{}
	}
	cells := map[string][]digest{}
	for _, w := range workloads {
		set, err := spawn(o, "setup", w.name, nil)
		if err != nil {
			return err
		}
		res, err := spawn(o, "run", w.name, set.Oracle)
		if err != nil {
			return err
		}
		for _, c := range res.Cells {
			if c.Failed != "" {
				return fmt.Errorf("%s cell %s failed, not pinning it: %s", w.name, c.Digest.Cell, c.Failed)
			}
			cells[w.name] = append(cells[w.name], c.Digest)
		}
	}
	f.Seeds[strconv.FormatInt(o.seed, 10)] = cells
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("pinned seed %d in %s\n", o.seed, expectedPath(root))
	return os.WriteFile(expectedPath(root), append(data, '\n'), 0o644)
}

// readGoldenRows returns the data rows of the committed fig9 golden TSV,
// which the two uts_fig9 cells reproduce at goldenSeed. Read-only.
func readGoldenRows(root string) ([]string, error) {
	f, err := os.Open(filepath.Join(root, "cmd", "repro", "testdata", "uts_T1WL'_wisteria.tsv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rows = append(rows, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("fig9 golden TSV has no data rows")
	}
	return rows[1:], nil
}
