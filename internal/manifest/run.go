// The Runner executes a slice of manifest entries into a timestamped run
// folder:
//
//	paper_runs/<stamp>/
//	  manifest.json      the resolved entries that ran (provenance)
//	  tables.txt         every experiment's aligned table, in order (also
//	                     printed on Stdout)
//	  tsv/<id>/*.tsv     each entry's TSV series
//	  json/<id>.json     each entry's structured rows
//	  metrics/<id>.tsv   deterministic metrics registry of the entry's
//	                     observed run, its first fork-join run (when one ran)
//	  trace/<id>.json    event trace of the entry's observed run, only when
//	                     Trace names a format
//	  summary.tsv        the paper-ready summary table, one row per entry:
//	                     deterministic engine counters, golden verdict and
//	                     headline metrics
//
// Given Goldens, every TSV series is then validated byte-for-byte against
// the committed golden of the same basename. No file carries a clock: the
// folder is a pure function of manifest, scale and flags, byte-identical at
// every Parallel. (Host wall time is the per-job progress line on Stderr;
// host throughput is benchmark/'s to measure.)

package manifest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"contsteal/internal/experiments"
)

// Runner executes manifest entries into OutDir/Stamp.
type Runner struct {
	Stamp    string
	Scale    string    // scale label recorded in provenance
	OutDir   string    // parent directory, e.g. "paper_runs"
	Goldens  Goldens   // nil skips validation
	Parallel int       // host worker pool of each entry's sweep grid
	Trace    string    // "" (no trace), "json" (for `repro analyze`) or "chrome" (for ui.perfetto.dev)
	Stdout   io.Writer // experiment tables and the summary table
	Stderr   io.Writer // per-entry and per-job progress
	Quiet    bool      // suppress progress on Stderr
}

// Report is the outcome of one Runner.Run.
type Report struct {
	Dir        string // the run folder
	Checks     []Check
	OK         int // series matching their golden
	Mismatches int // series diverging from their golden
	NoGolden   int // series with no committed golden
}

// Run executes the entries in order. Each entry's experiment grid still
// runs on the sweep pool (Parallel); entries themselves run sequentially,
// each under its own experiments.Observer. Every entry's
// params, and the trace format, are checked before the run folder is
// created.
// Returns an error on any I/O or experiment failure; golden mismatches are
// reported in the Report, not as an error (the caller decides).
func (rn *Runner) Run(entries []Entry) (*Report, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("manifest: no entries to run")
	}
	for _, e := range entries {
		if _, err := e.Params.options(experiments.Options{}); err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
	}
	subs := []string{"tsv", "json", "metrics"}
	switch rn.Trace {
	case "":
	case "json", "chrome":
		subs = append(subs, "trace")
	default:
		return nil, fmt.Errorf("manifest: unknown trace format %q (want json or chrome)", rn.Trace)
	}
	dir := filepath.Join(rn.OutDir, rn.Stamp)
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("manifest: run folder %s already exists", dir)
	}
	for _, sub := range subs {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"),
		Manifest{Scales: map[string][]Entry{rn.Scale: entries}}); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "tables.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tables := io.MultiWriter(f, rn.Stdout)

	stats := make([]entryStats, len(entries))
	for i, e := range entries {
		spec := Lookup(e.Experiment)
		if spec == nil {
			return nil, fmt.Errorf("manifest: unknown experiment %q", e.Experiment)
		}
		if !rn.Quiet {
			fmt.Fprintf(rn.Stderr, "== entry %d/%d: %s (%s) ==\n", i+1, len(entries), e.ID, e.Experiment)
		}
		r, ob, err := rn.runEntry(e, spec)
		if err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
		stats[i] = entryStats{ob, r.Summary()}
		if err := writeEntry(dir, e, r); err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
		if err := rn.writeObs(dir, e, ob); err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
		r.Table(tables)
	}

	rep := &Report{Dir: dir}
	if rn.Goldens != nil {
		checks, err := ValidateDir(dir, rn.Goldens)
		if err != nil {
			return nil, err
		}
		rep.Checks = checks
		for _, c := range checks {
			switch c.Status {
			case "ok":
				rep.OK++
			case "mismatch":
				rep.Mismatches++
			default:
				rep.NoGolden++
			}
		}
	}

	if err := rn.writeSummary(dir, entries, stats, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// entryStats is one summary row's engine columns — the counters of every
// fork-join run of the entry, summed by its Observer — plus the entry's
// headline metrics. Of the handoffs (proc resumptions), inplace were the
// dispatcher's own and inline ran a continuation that suspended the proc
// again; neither cost a goroutine switch, the rest did.
type entryStats struct {
	*experiments.Observer
	summary map[string]float64
}

// runEntry executes one entry under its own observer: it sums the engine
// counters, keeps the observed run's metrics registry and, when asked for,
// its trace; per-job progress goes to Stderr.
func (rn *Runner) runEntry(e Entry, spec *Spec) (experiments.Rendering, *experiments.Observer, error) {
	ob := &experiments.Observer{Trace: rn.Trace != ""}
	if !rn.Quiet {
		ob.Progress = experiments.ProgressLines(rn.Stderr)
	}
	r, err := spec.Run(e.Params, experiments.Options{Parallel: rn.Parallel, Observer: ob})
	if err != nil {
		return nil, nil, err
	}
	return r, ob, nil
}

// writeEntry persists one entry's series and rows.
func writeEntry(dir string, e Entry, r experiments.Rendering) error {
	if err := writeSeries(filepath.Join(dir, "tsv", e.ID), r.Series()); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "json", e.ID+".json"), section{r.Section(), r.Rows()})
}

// writeObs persists the observed run's metrics registry, when one ran, and
// its trace, when one was asked for: an entry with no fork-join run has no
// trace to give, which is an error only then.
func (rn *Runner) writeObs(dir string, e Entry, ob *experiments.Observer) error {
	if rn.Trace != "" {
		if ob.Log == nil {
			return fmt.Errorf("-trace: no fork-join runtime job ran")
		}
		write := ob.Log.WriteJSON
		if rn.Trace == "chrome" {
			write = ob.Log.WriteChromeTrace
		}
		if err := WriteFile(filepath.Join(dir, "trace", e.ID+".json"), write); err != nil {
			return err
		}
	}
	if ob.Stats.Obs == nil {
		return nil
	}
	return WriteFile(filepath.Join(dir, "metrics", e.ID+".tsv"), ob.Stats.Obs.WriteTSV)
}

// writeSummary emits the paper-ready summary table: one row per entry with
// job counts, engine counters, golden verdicts and key metrics — as
// summary.tsv in the folder and as an aligned table on Stdout.
func (rn *Runner) writeSummary(dir string, entries []Entry, stats []entryStats, rep *Report) error {
	verdict := map[string]string{}
	for _, c := range rep.Checks {
		v := verdict[c.Entry]
		switch {
		case c.Status == "mismatch":
			v = "MISMATCH"
		case c.Status == "ok" && v != "MISMATCH":
			v = "ok"
		case c.Status == "no-golden" && v == "":
			v = "-"
		}
		verdict[c.Entry] = v
	}
	header := []string{"id", "experiment", "jobs", "events", "handoffs", "inplace", "inline", "golden", "summary"}
	var rows [][]string
	for i, e := range entries {
		st := stats[i]
		v := verdict[e.ID]
		if v == "" {
			v = "-"
		}
		rows = append(rows, []string{
			e.ID, e.Experiment, fmt.Sprint(st.Runs),
			fmt.Sprint(st.Events), fmt.Sprint(st.Handoffs),
			fmt.Sprint(st.InPlace), fmt.Sprint(st.Inline),
			v, summaryString(st.summary)})
	}
	if err := writeSeries(dir, []experiments.Series{{Name: "summary", Header: header, Cells: rows}}); err != nil {
		return err
	}

	fmt.Fprintf(rn.Stdout, "\n== repro run: %s scale, %d entries -> %s ==\n", rn.Scale, len(entries), dir)
	tw := experiments.NewTW(rn.Stdout)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	if rn.Goldens != nil {
		fmt.Fprintf(rn.Stdout, "validation: %d series checked, %d ok, %d mismatches, %d without goldens\n",
			len(rep.Checks), rep.OK, rep.Mismatches, rep.NoGolden)
		for _, c := range rep.Checks {
			if c.Status == "mismatch" {
				fmt.Fprintf(rn.Stdout, "MISMATCH %s/%s: %s\n", c.Entry, c.Name, c.Diff)
			}
		}
	}
	return nil
}

// summaryString renders a Summary map as "k=v k=v" with sorted keys.
func summaryString(m map[string]float64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, m[k])
	}
	return strings.Join(parts, " ")
}

// section is one experiment's structured result: a run folder's
// json/<id>.json.
type section struct {
	Name string `json:"name"`
	Rows any    `json:"rows"`
}

// writeJSON writes v to path in the committed form: indented, trailing
// newline.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// WriteFile creates path and streams write into it, returning the first
// error of create, write and close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSeries writes each series as <dir>/<name>.tsv, creating dir when
// there is anything to write.
func writeSeries(dir string, series []experiments.Series) error {
	if len(series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range series {
		if err := WriteFile(filepath.Join(dir, s.Name+".tsv"), s.Write); err != nil {
			return err
		}
	}
	return nil
}
