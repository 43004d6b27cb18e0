// Command repro regenerates the paper's tables and figures on the
// simulated cluster and prints them as aligned text tables (and, for the
// figures, as TSV series suitable for plotting, or as a JSON dump).
//
// Usage:
//
//	repro fig6   [-bench pfor|recpfor] [-machine itoa|wisteria] [-workers N] [-scale K]
//	repro table2 [-bench pfor|recpfor] [-machine ...] [-workers N]
//	repro fig7   [-machine ...] [-workers N]
//	repro fig8   [-tree T1L|T1XXL|T1WL] [-seqdepth D]
//	repro fig9   [-tree ...] [-workers-list 48,192,768] [-seqdepth D]
//	repro table3 [-machine ...] [-workers N]
//	repro fig12  [-machine ...]
//	repro resilience [-tree ...] [-workers N] [-seqdepth D] [-machine ...]
//	repro serve  [-machine ...] [-workers N] [-requests R] [-loads 0.1,0.5,1,2]
//	             [-systems ours,saws,charm,glb] [-arrivals poisson,mmpp]
//	             [-admits always,token] [-horizon-us U]
//	repro stealzoo [-shape wavefront|stencil] [-n N] [-machine ...] [-workers N]
//	             (steal-policy zoo: uniform/hier/locality × steal-one/half
//	              victim policies on a seeded task-graph workload, across
//	              perturbation scenarios; every row's checksum must match the
//	              single-threaded oracle)
//	repro all    (runs the manifest's paper grid, honoring explicit flags)
//	repro run    [-scale smoke|paper] [-only fig6,serve] [-out paper_runs]
//	             [-stamp NAME] [-manifest FILE] [-goldens DIR]
//	repro validate <run-dir>     (re-check a run folder against the goldens)
//	repro analyze [-requests] <trace.json>
//	             (per-rank delay attribution from a -trace file; -requests
//	              switches to per-request sojourn attribution on serve traces)
//
// Every experiment is registered as a manifest spec (internal/manifest):
// the per-experiment subcommands, `repro all`, and `repro run` all dispatch
// through the same registry, so a flag given explicitly on the command line
// overrides the spec's defaults everywhere — including `repro fig9 -machine
// itoa` and `repro all -tree T1XXL`, which earlier versions silently
// discarded.
//
// -steal-policy NAME overlays a work-stealing policy (victim selection ×
// steal amount: uniform, hier, locality, each optionally -half; see
// internal/core.ParseStealPolicy) on every experiment's fork-join runtimes.
// The default empty policy is byte-identical to the paper's uniform random
// steal-one — all committed goldens are produced under it.
//
// `repro run` executes the committed experiments.json manifest at a named
// scale into a timestamped paper_runs/<stamp>/ folder (tables, TSV series,
// JSON rows, metrics registries, a summary of per-entry engine counters)
// and validates every series byte-for-byte against the committed golden
// fixtures. Every file of the folder is a pure function of manifest, scale
// and flags; host throughput is measured by benchmark/, not here. The smoke
// scale reproduces the golden fixtures in minutes; the paper scale runs
// every figure and table at default size.
//
// Fault injection: -perturb "jitter=0.5,straggler=0.25,sfactor=3,drop=0.01,
// seed=1" overlays a deterministic perturbation model (topo.Perturb) on any
// experiment's runs. The resilience experiment instead owns its scenario
// axis (baseline, stragglers, jitter, message drops) and reports each
// system's slowdown relative to its own unperturbed baseline. A spec with
// zero magnitudes (e.g. "seed=1") is a strict no-op: output is
// byte-identical to running without -perturb.
//
// Every experiment is a grid of independent deterministic simulations;
// -parallel N runs up to N of them concurrently (default: all CPUs) with
// per-job progress on stderr. Output is byte-identical for every -parallel
// value: each simulation runs on its own sequential single-clock engine and
// rows are reassembled in grid order. -json dumps the structured rows
// (virtual times in integer nanoseconds) alongside the tables and TSV.
//
// Observability: -trace FILE records the full layered event trace of the
// first simulated run of the invocation (the first grid point — the same
// one for every -parallel value) as raw JSON, or as Chrome trace format
// with -trace-format chrome (open in https://ui.perfetto.dev). -metrics
// FILE writes the run's deterministic metrics registry as TSV. A raw JSON
// trace feeds `repro analyze`, which decomposes each worker's virtual time
// into busy / steal-search / steal-transfer / outstanding-join /
// fabric-wait buckets and cross-checks every total against the embedded
// counter-derived statistics — the trace and the stats must agree to the
// tick.
//
// Absolute numbers are simulation outputs, not hardware measurements; the
// experiment shapes are what reproduce the paper (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/manifest"
)

// goldensUsage is the -goldens help text of run and validate.
const goldensUsage = "golden fixtures directory (default: cmd/repro/testdata or testdata under the working directory, where the committed fixtures live on disk)"

// defaultGoldens locates the committed golden fixtures relative to the
// working directory: the repo root or cmd/repro itself. (Several fixture
// names contain an apostrophe — the UTS "T1L'" tree tag — which go:embed
// rejects, so the fixtures stay on disk.) Outside the repo, pass -goldens.
func defaultGoldens() (manifest.Goldens, error) {
	for _, dir := range []string{"cmd/repro/testdata", "testdata"} {
		if _, err := os.Stat(dir + "/fig6_pfor_itoa.tsv"); err == nil {
			return manifest.DirGoldens(dir), nil
		}
	}
	return nil, fmt.Errorf("cannot locate the committed golden fixtures: run from the repo root, or pass -goldens DIR")
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func usageErr() error {
	return fmt.Errorf("usage: repro {fig6|table2|fig7|fig8|fig9|table3|fig12|resilience|stealzoo|serve|all|run|validate|analyze} [flags]")
}

// listFlag registers a comma-separated list flag appending into dst; an
// empty value keeps the default nil.
func listFlag[T any](fs *flag.FlagSet, dst *[]T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) error {
		*dst = nil
		if s == "" {
			return nil
		}
		for _, part := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
		return nil
	})
}

// positiveFlag registers an int flag, defaulting to def, that rejects values
// below 1 while parsing — so a typo fails with usage instead of running a
// silently different configuration.
func positiveFlag(fs *flag.FlagSet, dst *int, name string, def int, usage string) {
	*dst = def
	fs.Func(name, usage, func(s string) (err error) {
		if *dst, err = strconv.Atoi(s); err == nil && *dst < 1 {
			err = fmt.Errorf("must be at least 1")
		}
		return err
	})
}

// parseFlags is fs.Parse printing nothing on a bad flag, so the error
// reaches the user as the one line main prints; -h still shows the usage.
func parseFlags(fs *flag.FlagSet, args []string) error {
	w := fs.Output()
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(w)
	if err == flag.ErrHelp {
		fs.Usage()
	}
	return err
}

// perUnit is num/den, or 0 when there was nothing to divide by (a
// zero-event job, a wall time below the clock's resolution).
func perUnit(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func parseName(s string) (string, error)   { return s, nil }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// bindParams registers every experiment parameter as a flag writing straight
// into p. A zero Params field means "unset" (see manifest.Params), so the
// flags default to zero and an unset flag leaves the spec's — or, under
// `repro all`, the manifest entry's — value in force, while one given
// explicitly overrides it everywhere. Each flag is named by its field's
// JSON tag with "_" spelled "-" (TestParamsHaveFlags).
func bindParams(fs *flag.FlagSet, p *manifest.Params) {
	fs.StringVar(&p.Bench, "bench", "", "pfor or recpfor (default recpfor)")
	fs.StringVar(&p.Machine, "machine", "", "itoa or wisteria (default itoa; fig9: wisteria; resilience, stealzoo: both)")
	fs.IntVar(&p.Workers, "workers", 0, "simulated cores (0 = experiment default)")
	fs.IntVar(&p.Scale, "scale", 0, "problem-size scale shift (+k doubles sizes k times)")
	fs.StringVar(&p.Tree, "tree", "", "UTS tree: T1L, T1XXL or T1WL (default T1L)")
	fs.IntVar(&p.SeqDepth, "seqdepth", 0, "UTS: serialize the bottom D tree levels per task (default 3)")
	listFlag(fs, &p.WorkersList, "workers-list", "comma-separated worker counts for sweeps", strconv.Atoi)
	fs.IntVar(&p.N, "n", 0, "problem size override")
	fs.Int64Var(&p.Seed, "seed", 0, "RNG seed (default 42)")
	fs.IntVar(&p.WorkScale, "workscale", 0, "UTS: multiply per-node work (one node stands for k)")
	fs.IntVar(&p.DequeCap, "dequecap", 0, "per-worker deque capacity override")
	fs.StringVar(&p.Perturb, "perturb", "", `deterministic fault injection, e.g. "jitter=0.5,straggler=0.25,drop=0.01,seed=1" (keys: jitter, straggler, sfactor, degraded, dfactor, drop, seed)`)
	positiveFlag(fs, &p.Requests, "requests", 0, "serve: offered arrivals per grid cell, at least 1 (default: the experiment's)")
	listFlag(fs, &p.Loads, "loads", "serve: comma-separated offered-load multipliers (e.g. 0.1,0.5,1,2)", parseFloat)
	listFlag(fs, &p.Systems, "systems", "serve: comma-separated systems (ours,saws,charm,glb)", parseName)
	listFlag(fs, &p.Arrivals, "arrivals", "serve: comma-separated arrival processes (poisson,mmpp)", parseName)
	listFlag(fs, &p.Admits, "admits", "serve: comma-separated admission policies (always,token)", parseName)
	fs.Float64Var(&p.HorizonUs, "horizon-us", 0, "serve: cut every cell at this virtual time (µs; 0 = drain)")
	fs.StringVar(&p.Policy, "steal-policy", "", "steal policy for every core runtime: uniform, hier, locality, or their -half variants (\"\" = paper's uniform steal-one; stealzoo sweeps all and ignores this)")
	fs.StringVar(&p.Shape, "shape", "", "stealzoo: dag workload shape, wavefront or stencil (default wavefront)")
}

// run executes one repro invocation against the given writers. All tables
// and TSV/JSON notices go to stdout; progress and errors go to stderr.
func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) < 1 {
		return usageErr()
	}
	cmd, args := argv[0], argv[1:]
	switch cmd {
	case "run":
		return runPipeline(args, stdout, stderr)
	case "validate":
		return runValidate(args, stdout, stderr)
	case "analyze":
		return runAnalyze(args, stdout, stderr)
	}
	// One subcommand is one entry with no params of its own; `all` is the
	// manifest's paper grid. Either way the explicit flags overlay it.
	entries := []manifest.Entry{{Experiment: cmd}}
	if cmd == "all" {
		var err error
		if entries, err = manifest.Default().Entries("paper"); err != nil {
			return err
		}
	} else if manifest.Lookup(cmd) == nil {
		return usageErr()
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var fp manifest.Params
	bindParams(fs, &fp)
	tsvDir := fs.String("tsv", "", "also write the series as TSV files into this directory")
	jsonPath := fs.String("json", "", `also dump all rows as JSON to this file ("-" = stdout)`)
	tracePath := fs.String("trace", "", "record the event trace of the first simulated run to this file")
	traceFormat := fs.String("trace-format", "json", "trace file format: json (for `repro analyze`) or chrome (for ui.perfetto.dev)")
	metricsPath := fs.String("metrics", "", "write the first run's deterministic metrics registry as TSV to this file")
	parallel := new(int)
	positiveFlag(fs, parallel, "parallel", runtime.NumCPU(), "host worker pool for the sweep grid, at least 1 (1 = sequential; default: all CPUs)")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines on stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	engineStats := fs.Bool("engine-stats", false, "print per-job engine counters (events, handoffs split into in-place, inline and goroutine switches, callbacks, events/s) on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			err := manifest.WriteFile(path, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}()
	}
	if *parallel == 1 {
		// A sequential sweep is one engine at a time; keep the Go scheduler
		// on one OS thread for cheap proc handoffs (see internal/sim's
		// "Host performance" note), restoring the setting on return. With a
		// parallel pool the engines need all host threads instead.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if *traceFormat != "json" && *traceFormat != "chrome" {
		return fmt.Errorf("unknown -trace-format %q (want json or chrome)", *traceFormat)
	}
	// Every requested sink must be creatable before the first entry runs: a
	// paper-scale sweep must not lose its only output to a typo in a path.
	for _, sink := range [][2]string{{"-trace", *tracePath}, {"-metrics", *metricsPath}, {"json", *jsonPath}} {
		if sink[1] == "" || sink[1] == "-" {
			continue
		}
		if err := manifest.Creatable(sink[1]); err != nil {
			return fmt.Errorf("%s: %w", sink[0], err)
		}
	}
	if *tsvDir != "" {
		if err := os.MkdirAll(*tsvDir, 0o755); err != nil {
			return fmt.Errorf("tsv: %w", err)
		}
	}

	var obsCol *experiments.ObsCollector
	if *tracePath != "" || *metricsPath != "" {
		obsCol = &experiments.ObsCollector{Trace: *tracePath != "", Metrics: *metricsPath != ""}
	}
	observer := &experiments.Observer{}
	exec := manifest.Exec{Parallel: *parallel, Obs: obsCol, Observer: observer}

	if !*quiet {
		observer.Progress = experiments.ProgressLines(stderr)
	}
	if *engineStats {
		observer.EngineStats = func(c experiments.Coord, st core.RunStats, wall time.Duration) {
			es := st.Engine
			fmt.Fprintf(stderr, "engine [%s] events=%d handoffs=%d inplace=%d inline=%d switches=%d callbacks=%d events/s=%.2fM\n",
				c, es.Events, es.Handoffs, st.InPlace, st.Inline, es.Handoffs-st.InPlace-st.Inline, es.Callbacks,
				perUnit(float64(es.Events), wall.Seconds())/1e6)
		}
	}

	// Each result is recorded for the -json dump, printed as its aligned
	// table, and written as TSV series when -tsv was given. An empty Section
	// means an empty sweep — nothing to emit.
	var sections []manifest.Section
	for _, e := range entries {
		r, err := manifest.Lookup(e.Experiment).Run(e.Params.Merge(fp), exec)
		if err != nil {
			return err
		}
		if r.Section() == "" {
			continue
		}
		sections = append(sections, manifest.SectionOf(r))
		r.Table(stdout)
		if *tsvDir != "" {
			series := r.Series()
			if err := manifest.WriteSeries(*tsvDir, series); err != nil {
				return fmt.Errorf("tsv: %w", err)
			}
			for _, s := range series {
				fmt.Fprintf(stdout, "(series written to %s/%s.tsv)\n", *tsvDir, s.Name)
			}
		}
	}
	if err := writeObs(stdout, obsCol, *tracePath, *traceFormat, *metricsPath); err != nil {
		return err
	}
	if *jsonPath == "" {
		return nil
	}
	buf, err := manifest.EncodeJSON(sections)
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	if *jsonPath == "-" {
		_, err = stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
		return fmt.Errorf("json: %w", err)
	}
	fmt.Fprintf(stdout, "(rows written to %s)\n", *jsonPath)
	return nil
}

// runPipeline is `repro run`: execute the manifest at a scale into a
// timestamped run folder and validate it against the committed goldens. A
// golden mismatch is a non-zero exit.
func runPipeline(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "smoke", "manifest scale to run (smoke or paper)")
	var only []string
	listFlag(fs, &only, "only", "comma-separated entry IDs or experiment names to run (default: all)", parseName)
	out := fs.String("out", "paper_runs", "parent directory for run folders")
	stamp := fs.String("stamp", "", "run folder name (default: UTC timestamp)")
	manifestPath := fs.String("manifest", "", "manifest JSON file (default: the committed experiments.json built into the binary)")
	goldensDir := fs.String("goldens", "", goldensUsage)
	noValidate := fs.Bool("no-validate", false, "skip golden validation")
	parallel := new(int)
	positiveFlag(fs, parallel, "parallel", runtime.NumCPU(), "host worker pool for each entry's sweep grid, at least 1 (default: all CPUs)")
	// -perturb overlays every selected entry's params, as the subcommands'
	// flags do, so manifest.json records what ran.
	var overlay manifest.Params
	fs.StringVar(&overlay.Perturb, "perturb", "", "deterministic fault injection for every entry (see the experiment subcommands)")
	quiet := fs.Bool("quiet", false, "suppress per-entry and per-job progress on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: repro run [-scale smoke|paper] [-only ...] [flags]")
	}
	if *parallel == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	m := manifest.Default()
	if *manifestPath != "" {
		data, err := os.ReadFile(*manifestPath)
		if err != nil {
			return err
		}
		if m, err = manifest.Parse(data); err != nil {
			return err
		}
	}
	entries, err := m.Select(*scale, only)
	if err != nil {
		return err
	}
	for i := range entries {
		entries[i].Params = entries[i].Params.Merge(overlay)
	}
	var goldens manifest.Goldens
	switch {
	case *noValidate:
	case *goldensDir != "":
		goldens = manifest.DirGoldens(*goldensDir)
	default:
		if goldens, err = defaultGoldens(); err != nil {
			return fmt.Errorf("%w, or -no-validate", err)
		}
	}
	st := *stamp
	if st == "" {
		st = time.Now().UTC().Format("20060102T150405")
	}
	rn := &manifest.Runner{
		Stamp: st, Scale: *scale, OutDir: *out, Goldens: goldens,
		Exec:   manifest.Exec{Parallel: *parallel},
		Stdout: stdout, Stderr: stderr, Quiet: *quiet,
	}
	rep, err := rn.Run(entries)
	if err != nil {
		return err
	}
	if rep.Mismatches > 0 {
		return fmt.Errorf("repro run: %d series mismatch the committed goldens (see report above)", rep.Mismatches)
	}
	return nil
}

// runValidate is `repro validate <run-dir>`: re-check every TSV series of
// an existing run folder against the goldens and print a diff report.
func runValidate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	goldensDir := fs.String("goldens", "", goldensUsage)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: repro validate [-goldens DIR] <run-dir>")
	}
	var goldens manifest.Goldens
	var err error
	if *goldensDir != "" {
		goldens = manifest.DirGoldens(*goldensDir)
	} else if goldens, err = defaultGoldens(); err != nil {
		return err
	}
	checks, err := manifest.ValidateDir(fs.Arg(0), goldens)
	if err != nil {
		return err
	}
	ok, mismatches, noGolden := 0, 0, 0
	for _, c := range checks {
		switch c.Status {
		case "ok":
			ok++
			fmt.Fprintf(stdout, "ok        %s/%s\n", c.Entry, c.Name)
		case "mismatch":
			mismatches++
			fmt.Fprintf(stdout, "MISMATCH  %s/%s: %s\n", c.Entry, c.Name, c.Diff)
		default:
			noGolden++
			fmt.Fprintf(stdout, "no-golden %s/%s\n", c.Entry, c.Name)
		}
	}
	fmt.Fprintf(stdout, "%d series checked: %d ok, %d mismatches, %d without goldens\n",
		len(checks), ok, mismatches, noGolden)
	if mismatches > 0 {
		return fmt.Errorf("repro validate: %d series mismatch the goldens", mismatches)
	}
	return nil
}

// writeObs writes the collected trace and/or metrics files.
func writeObs(stdout io.Writer, oc *experiments.ObsCollector, tracePath, traceFormat, metricsPath string) error {
	if oc == nil {
		return nil
	}
	if !oc.Done {
		return fmt.Errorf("-trace/-metrics: no fork-join runtime job ran in this invocation")
	}
	if tracePath != "" {
		if oc.Log == nil {
			return fmt.Errorf("-trace: run %s recorded no trace", oc.Coord)
		}
		write := oc.Log.WriteJSON
		if traceFormat == "chrome" {
			write = oc.Log.WriteChromeTrace
		}
		if err := manifest.WriteFile(tracePath, write); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Fprintf(stdout, "(trace of %s written to %s)\n", oc.Coord, tracePath)
	}
	if metricsPath != "" {
		if oc.Stats.Obs == nil {
			return fmt.Errorf("-metrics: run %s collected no registry", oc.Coord)
		}
		if err := manifest.WriteFile(metricsPath, oc.Stats.Obs.WriteTSV); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Fprintf(stdout, "(metrics of %s written to %s)\n", oc.Coord, metricsPath)
	}
	return nil
}
