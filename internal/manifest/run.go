// The Runner executes a slice of manifest entries into a timestamped run
// folder:
//
//	paper_runs/<stamp>/
//	  manifest.json      the resolved entries that ran (provenance)
//	  tables.txt         every experiment's aligned table, in order
//	  tsv/<id>/*.tsv     each entry's TSV series
//	  json/<id>.json     each entry's structured rows
//	  metrics/<id>.tsv   deterministic metrics registry of the entry's
//	                     first fork-join run (when one ran)
//	  metrics/<id>.requests.tsv
//	                     per-request tail-attribution bands of a serve entry
//	                     (when request tracing ran; same bytes as the entry's
//	                     golden-validated serve_requests_* series)
//	  summary.tsv        the paper-ready summary table, one row per entry:
//	                     deterministic engine counters, golden verdict and
//	                     headline metrics
//
// Every TSV series is then validated byte-for-byte against the committed
// goldens where one with the same basename exists. No file carries a clock:
// the folder is a pure function of manifest, scale and flags, byte-identical
// at every -parallel. (Host wall time is the per-job progress line on
// Stderr; host throughput is benchmark/'s to measure.)

package manifest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"contsteal/internal/core"
	"contsteal/internal/experiments"
)

// Runner executes manifest entries into OutDir/Stamp.
type Runner struct {
	Stamp   string
	Scale   string  // scale label recorded in provenance
	OutDir  string  // parent directory, e.g. "paper_runs"
	Goldens Goldens // nil skips validation
	Exec    Exec
	Stdout  io.Writer // summary table and artifact notices
	Stderr  io.Writer // per-entry and per-job progress
	Quiet   bool      // suppress progress on Stderr
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
// runs on the sweep pool (Exec.Parallel); entries themselves run
// sequentially, each under its own observer and observability collector.
// Every entry's params are checked before the run folder is created.
// Returns an error on any I/O or experiment failure; golden mismatches are
// reported in the Report, not as an error (the caller decides).
func (rn *Runner) Run(entries []Entry) (*Report, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("manifest: no entries to run")
	}
	for _, e := range entries {
		if _, err := e.Params.options(Exec{}); err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
	}
	dir := filepath.Join(rn.OutDir, rn.Stamp)
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("manifest: run folder %s already exists", dir)
	}
	for _, sub := range []string{"tsv", "json", "metrics"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	if err := WriteJSON(filepath.Join(dir, "manifest.json"),
		Manifest{Scales: map[string][]Entry{rn.Scale: entries}}); err != nil {
		return nil, err
	}
	tables, err := os.Create(filepath.Join(dir, "tables.txt"))
	if err != nil {
		return nil, err
	}
	defer tables.Close()

	stats := make([]entryStats, len(entries))
	for i, e := range entries {
		spec := Lookup(e.Experiment)
		if spec == nil {
			return nil, fmt.Errorf("manifest: unknown experiment %q", e.Experiment)
		}
		if !rn.Quiet {
			fmt.Fprintf(rn.Stderr, "== entry %d/%d: %s (%s) ==\n", i+1, len(entries), e.ID, e.Experiment)
		}
		r, obs, err := rn.runEntry(e, spec, &stats[i])
		if err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
		if err := writeEntry(dir, e, r); err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.ID, err)
		}
		if err := writeMetrics(dir, e, obs); err != nil {
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

// entryStats is one summary row's engine columns: the deterministic
// counters of every fork-join run of the entry, summed, plus the entry's
// headline metrics.
type entryStats struct {
	jobs             int
	events, handoffs uint64
	summary          map[string]float64
}

// add is the entry's Observer.EngineStats; calls arrive serialized.
func (a *entryStats) add(_ experiments.Coord, st core.RunStats, _ time.Duration) {
	a.jobs++
	a.events += st.Engine.Events
	a.handoffs += st.Engine.Handoffs
}

// runEntry executes one entry under its own observer — the engine counters
// accumulate into st, per-job progress goes to Stderr — and its own metrics
// collector.
func (rn *Runner) runEntry(e Entry, spec *Spec, st *entryStats) (experiments.Rendering, *experiments.ObsCollector, error) {
	obs := &experiments.ObsCollector{Metrics: true}
	x := rn.Exec
	x.Obs = obs
	x.Observer = &experiments.Observer{EngineStats: st.add}
	if !rn.Quiet {
		x.Observer.Progress = experiments.ProgressLines(rn.Stderr)
	}
	r, err := spec.Run(e.Params, x)
	if err != nil {
		return nil, nil, err
	}
	st.summary = r.Summary()
	return r, obs, nil
}

// writeEntry persists one entry's series, request bands and rows.
func writeEntry(dir string, e Entry, r experiments.Rendering) error {
	if err := WriteSeries(filepath.Join(dir, "tsv", e.ID), r.Series()); err != nil {
		return err
	}
	if rows, ok := r.Rows().([]experiments.ServeRow); ok {
		if s, ok := experiments.ServeRequestSeries(rows); ok {
			if err := WriteFile(filepath.Join(dir, "metrics", e.ID+".requests.tsv"), s.Write); err != nil {
				return err
			}
		}
	}
	return WriteJSON(filepath.Join(dir, "json", e.ID+".json"), SectionOf(r))
}

// writeMetrics persists the claimed run's metrics registry, when one was
// collected.
func writeMetrics(dir string, e Entry, obs *experiments.ObsCollector) error {
	if !obs.Done || obs.Stats.Obs == nil {
		return nil
	}
	return WriteFile(filepath.Join(dir, "metrics", e.ID+".tsv"), obs.Stats.Obs.WriteTSV)
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
	header := []string{"id", "experiment", "jobs", "events", "handoffs", "golden", "summary"}
	var rows [][]string
	for i, e := range entries {
		st := stats[i]
		v := verdict[e.ID]
		if v == "" {
			v = "-"
		}
		rows = append(rows, []string{
			e.ID, e.Experiment, fmt.Sprint(st.jobs),
			fmt.Sprint(st.events), fmt.Sprint(st.handoffs),
			v, summaryString(st.summary)})
	}
	if err := WriteSeries(dir, []experiments.Series{{Name: "summary", Header: header, Cells: rows}}); err != nil {
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

// The output writers below are shared by the Runner and by cmd/repro's
// subcommand path (-tsv, -json, -trace, -metrics), so a run folder and a
// one-off invocation serialize a result through the same code.

// Section is one experiment's structured result in a JSON dump: a run
// folder's json/<id>.json, or one element of cmd/repro's -json array.
type Section struct {
	Name string `json:"name"`
	Rows any    `json:"rows"`
}

// SectionOf extracts a rendering's JSON section.
func SectionOf(r experiments.Rendering) Section { return Section{r.Section(), r.Rows()} }

// EncodeJSON marshals v in the committed form: indented, trailing newline.
func EncodeJSON(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	return append(buf, '\n'), err
}

// WriteJSON writes EncodeJSON(v) to path.
func WriteJSON(path string, v any) error {
	buf, err := EncodeJSON(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
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

// Creatable reports whether WriteFile(path, …) would get past its create, so
// a caller can ask before a long run instead of after it. An existing file is
// opened for writing and left as it is; one created to find out is removed
// again.
func Creatable(path string) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	if statErr != nil {
		return os.Remove(path)
	}
	return nil
}

// WriteSeries writes each series as <dir>/<name>.tsv, creating dir when
// there is anything to write.
func WriteSeries(dir string, series []experiments.Series) error {
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
