package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The tests re-execute the test binary as a benchmark child the way the
// command re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnvVar) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is BENCHMARK.json; the contract fixes exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", got.RunSeconds)
	}
	if !reflect.DeepEqual(got.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", got.Paths)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(got.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(got.Workloads), len(workloads))
	}
	for i, w := range got.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the benchmark defines %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	var wantE2E []e2eMetric
	for _, m := range endToEnd {
		if m.Only == "" {
			wantE2E = append(wantE2E, m)
		}
	}
	if len(got.EndToEnd) != len(wantE2E) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark defines %d on every workload", len(got.EndToEnd), len(wantE2E))
	}
	for i, m := range got.EndToEnd {
		name("end-to-end", m.Name)
		w := wantE2E[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
			t.Errorf("end_to_end[%d] = %+v, the benchmark defines %+v", i, m, w)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > got.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", m.Name, m.Bound, got.EndToEnd[0].Bound)
		}
	}
	if first := got.EndToEnd[0]; first.Name != "setup_s" || first.Unit != "s" || first.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", first)
	}

	wantLayer := layerMetrics
	if len(got.PerLayer) != len(wantLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(got.PerLayer), len(wantLayer))
	}
	for i, m := range got.PerLayer {
		name("per-layer", m.Name)
		w := wantLayer[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
			t.Errorf("per_layer[%d] = %+v, the benchmark reports %s in %s, %s", i, m, w.Name, w.Unit, w.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
	}
}

// Every layer metric predicts which end-to-end metric it moves on which
// workload; a later issue names that pairing, so it must exist.
func TestMovesNameExistingMetricsAndWorkloads(t *testing.T) {
	micro := map[string]bool{}
	for _, d := range microDrivers {
		micro[d.name] = true
	}
	for _, m := range layerMetrics {
		if len(m.Moves) == 0 {
			t.Errorf("%s predicts no end-to-end movement", m.Name)
		}
		for _, mv := range m.Moves {
			if _, ok := e2eByName(mv.Metric); !ok {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, mv.Metric)
			}
			if _, err := workloadByName(mv.Workload); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
		if (m.Kind == kindUnitCost) != micro[m.Name] {
			t.Errorf("%s: unit-cost kind and micro-driver presence disagree", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

func TestChildLineRoundTrips(t *testing.T) {
	in := childResult{
		Kind: "traced", Workload: "serve_open", Seed: 7, GOMAXPROCS: 1,
		WallS: 3.25, AllocMB: 818.6, Mallocs: 4394666, GCCount: 23, PeakRSSMB: 233.4,
		Cells: []cellResult{{
			Digest: digest{Cell: "ours@0.5", ExecNs: 1011278, Tasks: 124661, Result: 16000, P50Ns: 14978, P99Ns: 75841, P999Ns: 106797},
			WallS:  1.36, Core: true, Efficiency: 0.457, GoodputRps: 15821564.4,
		}, {
			Digest: digest{Cell: "charm@2", ExecNs: 374563, Tasks: 124661, Result: 16000},
			Failed: "panic: boom",
		}},
		Counts: counts{"sim.events": 12345, "msg.handled": 6},
		Spans:  []span{{ID: 0, Parent: -1, Name: "repeat", StartS: 0, EndS: 3.25}, {ID: 1, Parent: 0, Name: "ours@0.5", StartS: 0.001, EndS: 1.36}},
		Oracle: []int64{124661, 124661},
		Micro:  map[string]float64{"sim.handoff_ns": 535.5},
	}
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out childResult
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("child line does not round-trip:\n in  %+v\n out %+v", in, out)
	}
}

// A scaled-down cell set of every workload must produce identical simulated
// digests in two cold processes, in the traced process, whose serve cells
// are built from the layers rather than by experiments.ServeOnce, and at the
// workload's GOMAXPROCS probe if it has one.
func TestSmallCellsRepeatAcrossProcesses(t *testing.T) {
	o := options{seed: 7, small: true}
	for _, w := range workloads {
		set, err := spawn(o, "setup", w.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		type child struct {
			kind  string
			procs int
		}
		children := []child{{"run", w.gomaxprocs}, {"run", w.gomaxprocs}, {"traced", w.gomaxprocs}}
		if w.procsProbe > 0 {
			children = append(children, child{"run", w.procsProbe})
		}
		var first []cellResult
		for _, c := range children {
			kind, co := c.kind, o
			if c.procs != w.gomaxprocs {
				co.procs = c.procs
			}
			res, err := spawn(co, kind, w.name, set.Oracle)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Cells) != w.cells {
				t.Fatalf("%s %s: %d cells, want %d", w.name, kind, len(res.Cells), w.cells)
			}
			if res.GOMAXPROCS != c.procs {
				t.Errorf("%s %s ran at GOMAXPROCS %d, want %d", w.name, kind, res.GOMAXPROCS, c.procs)
			}
			for i, c := range res.Cells {
				if c.Failed != "" {
					t.Errorf("%s %s cell %s failed: %s", w.name, kind, c.Digest.Cell, c.Failed)
				}
				if first != nil {
					if d := diffDigest(first[i].Digest, c.Digest); d != "" {
						t.Errorf("%s %s child differs from the first: %s", w.name, kind, d)
					}
				}
			}
			if first == nil {
				first = res.Cells
			}
			if kind == "traced" && res.Counts["obs.events"] == 0 {
				t.Errorf("%s traced child recorded no trace events", w.name)
			}
		}
	}
}

func TestDiffDigestNamesCellAndField(t *testing.T) {
	a := digest{Cell: "workers24", ExecNs: 116907412, StealsOK: 743}
	b := a
	b.StealsOK = 744
	if got, want := diffDigest(a, b), "cell workers24 field StealsOK: want 743, got 744"; got != want {
		t.Errorf("diffDigest = %q, want %q", got, want)
	}
	if d := diffDigest(a, a); d != "" {
		t.Errorf("equal digests differ: %s", d)
	}
}

// Quartiles must be the ones Python's statistics.quantiles(v, n=4) gives,
// since that is how the driver computes the spread it holds us to.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3.5, 3.6, 3.4, 3.9, 3.5, 3.7, 3.5, 3.6, 3.8}, 3.5, 3.6, 3.75},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		d := newDist(c.in)
		if !near(d.Q1, c.q1) || !near(d.Median, c.q2) || !near(d.Q3, c.q3) {
			t.Errorf("quartiles of %v = %v %v %v, want %v %v %v", c.in, d.Q1, d.Median, d.Q3, c.q1, c.q2, c.q3)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestVerdict(t *testing.T) {
	host := func(better string, samples ...float64) metricValue {
		d := newDist(samples)
		return metricValue{Better: better, Value: d.best(better), dist: d}
	}
	exact := func(better string, v float64) metricValue { return metricValue{Better: better, Value: v} }
	for _, c := range []struct {
		name  string
		a, b  metricValue
		bound float64
		want  string
	}{
		{"steady and equal", host("lower", 3.50, 3.52, 3.51, 3.49, 3.50), host("lower", 3.51, 3.50, 3.52, 3.50, 3.49), 0.10, "ok"},
		{"steady and 20% slower", host("lower", 3.50, 3.52, 3.51, 3.49, 3.50), host("lower", 4.2, 4.22, 4.19, 4.2, 4.21), 0.10, "regressed"},
		{"steady and 20% less throughput", host("higher", 100, 101, 99, 100, 100), host("higher", 80, 81, 79, 80, 80), 0.10, "regressed"},
		{"noisy and overlapping", host("lower", 3, 4, 5, 3, 5), host("lower", 3.5, 4.5, 5.5, 3, 5), 0.10, "unresolved"},
		{"noisy but every run better", host("lower", 3, 4, 5, 3, 5), host("lower", 1, 2, 2.9, 1, 2), 0.10, "ok"},
		{"noisy but every run worse", host("lower", 3, 4, 5, 3, 5), host("lower", 6, 7, 9, 6, 8), 0.10, "regressed"},
		{"exact and equal", exact("lower", 349.877), exact("lower", 349.877), 0, "ok"},
		{"exact and one tick worse", exact("lower", 349.877), exact("lower", 349.878), 0, "regressed"},
		{"exact and better", exact("higher", 1.3649), exact("higher", 1.37), 0, "ok"},
	} {
		if got := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFlagForms(t *testing.T) {
	for _, c := range []struct {
		args  string
		trace bool
		seed  int64
	}{
		{"--workload uts_fig9 --seed 3 --seconds 15 --trace 0", false, 3},
		{"--workload uts_fig9 --seed 3 --seconds 15 --trace 1", true, 3},
		{"-trace -seed 9", true, 9},
		{"-seed 9 -trace", true, 9},
		{"--seed 0", false, 42},
	} {
		o, _, err := parseFlags(strings.Fields(c.args))
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if o.trace != c.trace || o.seed != c.seed {
			t.Errorf("%q: trace=%v seed=%d, want %v %d", c.args, o.trace, o.seed, c.trace, c.seed)
		}
	}
	if _, _, err := parseFlags([]string{"-repeats", "3"}); err == nil {
		t.Error("-repeats 3 accepted; the floor is 5")
	}
}
