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
//	  bench/BENCH_<stamp>.json  the perf artifact (see bench.go)
//	  summary.tsv        the paper-ready summary table, one row per entry
//
// Every TSV series is then validated byte-for-byte against the committed
// goldens where one with the same basename exists.

package manifest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"contsteal/internal/experiments"
)

// Runner executes manifest entries into OutDir/Stamp.
type Runner struct {
	Stamp   string
	Scale   string  // scale label recorded in provenance and BENCH
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
	Bench      Bench
	Checks     []Check
	OK         int // series matching their golden
	Mismatches int // series diverging from their golden
	NoGolden   int // series with no committed golden
}

// Run executes the entries in order. Each entry's experiment grid still
// runs on the sweep pool (Exec.Parallel); entries themselves run
// sequentially so the engine-stats aggregation and observability collector
// attribution stay per-entry. Returns an error on any I/O or experiment
// failure; golden mismatches are reported in the Report, not as an error
// (the caller decides).
func (rn *Runner) Run(entries []Entry) (*Report, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("manifest: no entries to run")
	}
	dir := filepath.Join(rn.OutDir, rn.Stamp)
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("manifest: run folder %s already exists", dir)
	}
	for _, sub := range []string{"tsv", "json", "metrics", "bench"} {
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

	bench := Bench{
		Schema: BenchSchema, Stamp: rn.Stamp, Scale: rn.Scale,
		Go: runtime.Version(), HostCPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for i, e := range entries {
		spec := Lookup(e.Experiment)
		if spec == nil {
			return nil, fmt.Errorf("manifest: unknown experiment %q", e.Experiment)
		}
		if !rn.Quiet {
			fmt.Fprintf(rn.Stderr, "== entry %d/%d: %s (%s) ==\n", i+1, len(entries), e.ID, e.Experiment)
		}
		be, r, obs, err := rn.runEntry(e, spec)
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
		bench.Entries = append(bench.Entries, be)
	}

	rep := &Report{Dir: dir, Bench: bench}
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

	benchPath := filepath.Join(dir, "bench", "BENCH_"+rn.Stamp+".json")
	if err := WriteJSON(benchPath, bench); err != nil {
		return nil, err
	}
	if err := rn.writeSummary(dir, entries, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(rn.Stdout, "(bench artifact written to %s)\n", benchPath)
	return rep, nil
}

// runEntry executes one entry with per-entry hooks: an EngineStats
// aggregator feeding the bench artifact, a metrics collector, and per-job
// progress. The global hooks are restored before returning.
func (rn *Runner) runEntry(e Entry, spec *Spec) (BenchEntry, experiments.Rendering, *experiments.ObsCollector, error) {
	obs := &experiments.ObsCollector{Metrics: true}
	x := rn.Exec
	x.Obs = obs

	var agg benchAgg
	prevStats, prevProg := experiments.EngineStats, experiments.Progress
	experiments.EngineStats = agg.add
	if !rn.Quiet {
		stderr := rn.Stderr
		experiments.Progress = func(done, total int, c experiments.Coord, wall time.Duration) {
			fmt.Fprintf(stderr, "[%d/%d] %s (%.2fs)\n", done, total, c, wall.Seconds())
		}
	}
	defer func() {
		experiments.EngineStats, experiments.Progress = prevStats, prevProg
	}()

	r, err := spec.Run(e.Params, x)
	if err != nil {
		return BenchEntry{}, nil, nil, err
	}
	shards := x.Shards
	if e.Params.Shards != 0 {
		shards = e.Params.Shards
	}
	if shards < 1 {
		shards = 1
	}
	be := agg.entry(e.ID, e.Experiment, shards)
	be.Summary = r.Summary()
	return be, r, obs, nil
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
// job counts, engine throughput, golden verdicts and key metrics — as
// summary.tsv in the folder and as an aligned table on Stdout.
func (rn *Runner) writeSummary(dir string, entries []Entry, rep *Report) error {
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
	header := []string{"id", "experiment", "shards", "jobs", "events", "handoffs", "cross_shard", "events_per_sec", "golden", "summary"}
	var rows [][]string
	for i, e := range entries {
		be := rep.Bench.Entries[i]
		v := verdict[e.ID]
		if v == "" {
			v = "-"
		}
		rows = append(rows, []string{
			e.ID, e.Experiment, fmt.Sprint(be.Shards), fmt.Sprint(be.Jobs),
			fmt.Sprint(be.Events), fmt.Sprint(be.Handoffs), fmt.Sprint(be.CrossShard),
			fmt.Sprintf("%.0f", be.EventsPerSec), v, summaryString(be.Summary)})
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
