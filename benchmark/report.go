package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

var arrows = map[string]string{"lower": "↓", "higher": "↑"}

// printReport prints every metric by name with its unit and kind. Host
// metrics show their sample count, median (end to end: the value is the best
// sample) or minimum (per layer: the value is the median) and quartiles
// beside the value; simulated metrics and counts are exact and show one value.
func printReport(w io.Writer, r results) {
	fmt.Fprintf(w, "contsteal benchmark  seed %d  host: nproc=%d %s %s/%s %s\n",
		r.Seed, r.Host.NProc, r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH, r.Host.CPU)
	fmt.Fprintln(w, "host = what the simulator costs to run; simulated = what the modelled cluster would take (exact, unvalidated against hardware)")
	for _, wl := range r.Workloads {
		pin := "seed not pinned: oracles and repeat-determinism only"
		if wl.Pinned {
			pin = "digests checked against expected.json"
		}
		fmt.Fprintf(w, "\n== %s  (GOMAXPROCS %d, %d clean repeats, %s) ==\n", wl.Name, wl.GOMAXPROCS, wl.Repeats, pin)
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		printMetrics(tw, wl.EndToEnd, true)
		failedFrac := 0.0
		if wl.Attempted > 0 {
			failedFrac = float64(wl.Failed) / float64(wl.Attempted)
		}
		fmt.Fprintf(tw, "failed_frac\t%.6g\tratio\t↓\t-\t%d failed of %d operations (bound 0)\n", failedFrac, wl.Failed, wl.Attempted)
		if len(wl.PerLayer) > 0 {
			fmt.Fprintln(tw, "-- per layer --\t\t\t\t\t")
			printMetrics(tw, wl.PerLayer, false)
		}
		tw.Flush()
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "FAILED: %s\n", f)
		}
	}
	fmt.Fprintln(w)
}

func printMetrics(tw io.Writer, ms []metricValue, bounds bool) {
	for _, m := range ms {
		detail := ""
		switch {
		case m.N > 0 && bounds:
			detail = fmt.Sprintf("best of n=%d  median %.6g  q1 %.6g  q3 %.6g  spread %.1f%%", m.N, m.Median, m.Q1, m.Q3, 100*m.spread())
		case m.N > 0:
			detail = fmt.Sprintf("median of n=%d  min %.6g  q1 %.6g  q3 %.6g  spread %.1f%%", m.N, m.Min, m.Q1, m.Q3, 100*m.spread())
		}
		if bounds {
			if detail != "" {
				detail += "  "
			}
			detail += fmt.Sprintf("bound %.0f%%", 100*m.Bound)
			if m.Kind == kindSimulated {
				detail += " across seeds, exact at one seed"
			}
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\n", m.Name, m.Value, m.Unit, arrows[m.Better], m.Kind, detail)
	}
}

// traceFile is trace_<workload>.json: the spans the traced child recorded
// around its calls into the layers, and the counts taken at the same
// boundaries. See README.md for how to read it.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WallS    float64 `json:"wall_s"`
	Spans    []span  `json:"spans"`
	Setup    []span  `json:"setup_spans,omitempty"`
	Counts   counts  `json:"counts"`
}

func writeOutputs(dir string, r results, runs []*workloadRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), r); err != nil {
		return err
	}
	for _, wr := range runs {
		if wr.traced == nil {
			continue
		}
		tf := traceFile{Workload: wr.def.name, Seed: r.Seed, WallS: wr.traced.WallS, Spans: wr.traced.Spans, Counts: wr.traced.Counts}
		if len(wr.setups) > 0 {
			tf.Setup = wr.setups[0].Spans
		}
		if err := writeJSON(filepath.Join(dir, "trace_"+wr.def.name+".json"), tf); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
