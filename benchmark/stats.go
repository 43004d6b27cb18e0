package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// dist summarises the samples of one host metric; the sample count is printed
// beside it wherever it is shown.
type dist struct {
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// newDist summarises samples; the quartiles are those of Python's
// statistics.quantiles(samples, n=4) (exclusive method), so the spread the
// benchmark prints is the spread the driver computes.
func newDist(samples []float64) dist {
	d := dist{N: len(samples), Samples: samples}
	if d.N == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Min, d.Max = s[0], s[d.N-1]
	d.Median = quantile(s, 2)
	d.Q1, d.Q3 = quantile(s, 1), quantile(s, 3)
	return d
}

// best is the sample least touched by the host's other tenants.
func (d dist) best(better string) float64 {
	if better == "higher" {
		return d.Max
	}
	return d.Min
}

// quantile returns the i-th quartile cut point of sorted data.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return math.Abs((d.Q3 - d.Q1) / d.Median)
}

// ---------------------------------------------------------------------------
// -compare A.json B.json
// ---------------------------------------------------------------------------

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return r, nil
}

// verdict applies one metric's bound to two sets of runs, A the reference.
//
//   - unresolved: the run-to-run spread of either side is wider than the
//     bound, so the values cannot carry a verdict — unless every run of one
//     side beats every run of the other, which settles it.
//   - regressed: B's value is worse than A's by more than the bound.
//   - ok: otherwise.
//
// Exact metrics (simulated, same seed) have bound 0 and one value per side.
func verdict(a, b metricValue, bound float64) string {
	worse := func(x, y float64) bool { // x worse than y
		if a.Better == "higher" {
			return x < y
		}
		return x > y
	}
	if bound > 0 && a.N > 1 && b.N > 1 && (a.spread() > bound || b.spread() > bound) {
		aBest, aWorst, bBest, bWorst := a.Min, a.Max, b.Min, b.Max
		if a.Better == "higher" {
			aBest, aWorst, bBest, bWorst = a.Max, a.Min, b.Max, b.Min
		}
		switch {
		case worse(aBest, bWorst):
			return "ok"
		case worse(bBest, aWorst):
			return "regressed"
		}
		return "unresolved"
	}
	limit := math.Abs(a.Value) * bound
	if worse(b.Value, a.Value) && math.Abs(b.Value-a.Value) > limit {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per end-to-end metric × workload, then checks
// that every count-kind layer metric present in both files is bit-identical.
// It returns an error if any row regressed or any count changed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts differ (%+v vs %+v); host metrics are not comparable across hosts\n", a.Host, b.Host)
	}
	sameSeed := a.Seed == b.Seed
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA (n, spread)\tB (n, spread)\tB vs A\tbound\tverdict")
	bad := 0
	for _, wa := range a.Workloads {
		wb, ok := b.workload(wa.Name)
		if !ok {
			continue
		}
		for _, ma := range wa.EndToEnd {
			mb, ok := findMetric(wb.EndToEnd, ma.Name)
			if !ok {
				continue
			}
			bound := ma.Bound
			if ma.Kind == kindSimulated && sameSeed {
				bound = 0 // one seed, one answer: simulated metrics are exact
			}
			v := verdict(ma, mb, bound)
			if v == "regressed" {
				bad++
			}
			change := 0.0
			if ma.Value != 0 {
				change = (mb.Value - ma.Value) / math.Abs(ma.Value)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d, %.1f%%)\t%.6g (%d, %.1f%%)\t%+.2f%%\t%.0f%%\t%s\n",
				wa.Name, ma.Name, ma.Unit, ma.Value, ma.N, 100*ma.spread(), mb.Value, mb.N, 100*mb.spread(),
				100*change, 100*bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	same, changed := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := b.workload(wa.Name)
		if !ok {
			continue
		}
		for _, ma := range wa.PerLayer {
			mb, ok := findMetric(wb.PerLayer, ma.Name)
			if !ok || ma.Kind != kindCount || !sameSeed {
				continue
			}
			if ma.Value == mb.Value {
				same++
				continue
			}
			changed++
			fmt.Fprintf(w, "count changed: %s %s: %v -> %v\n", wa.Name, ma.Name, ma.Value, mb.Value)
		}
	}
	fmt.Fprintf(w, "count-kind layer metrics: %d identical, %d changed\n", same, changed)
	if bad > 0 || changed > 0 {
		return fmt.Errorf("%d end-to-end rows regressed, %d layer counts changed", bad, changed)
	}
	return nil
}

func findMetric(ms []metricValue, name string) (metricValue, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}
