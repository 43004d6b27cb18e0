// Command repro regenerates the paper's tables and figures on the
// simulated cluster. Every invocation that runs an experiment is a manifest
// run (internal/manifest): it prints the aligned tables on stdout and writes
// one timestamped run folder, <out>/<stamp>/, with the tables, TSV series
// for plotting, JSON rows, metrics registries, an optional event trace and a
// summary of per-entry engine counters.
//
// Usage:
//
//	repro run    [-scale smoke|paper] [-only fig6,serve] [-manifest FILE]
//	             [-goldens DIR] [-no-validate] [param flags] [run flags]
//	repro fig6   [-bench pfor|recpfor] [-machine itoa|wisteria] [-workers N] [-scale K]
//	repro table2 [-bench pfor|recpfor] [-machine ...] [-workers N]
//	repro fig7   [-machine ...] [-workers N] [-n N]
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
//	repro validate [-goldens DIR] <run-dir>
//	             (re-check a run folder against the goldens)
//	repro analyze [-requests] <trace.json>
//	             (per-rank delay attribution from a trace/<id>.json; -requests
//	              switches to per-request sojourn attribution on serve traces)
//
// Run flags, on `run` and every experiment: -out DIR (default paper_runs),
// -stamp NAME (default: UTC timestamp), -parallel N, -quiet, -trace
// json|chrome, -cpuprofile FILE, -memprofile FILE.
//
// `repro run` executes the committed experiments.json manifest (or
// -manifest FILE) at a named scale. `repro <experiment> [flags]` is the
// one-entry manifest {"id": "<experiment>", "experiment": "<experiment>",
// "params": <flags>}; its folder's manifest.json records the entry under
// scale <experiment>, so `repro run -manifest <folder>/manifest.json -scale
// <experiment>` re-runs it exactly. Every param flag (bound once, in
// bindParams) overlays each entry's params, so a flag given explicitly
// overrides the spec's and the manifest's defaults everywhere. On `run`,
// -scale names the manifest scale; the problem-size shift is then the
// entries' own.
//
// The smoke scale is the golden grid: its run validates every series
// byte-for-byte against the committed fixtures (cmd/repro/testdata) and
// exits non-zero on a mismatch, unless -no-validate. Other scales and
// experiment runs are not validated (golden verdict "-"). The smoke scale
// reproduces the golden fixtures in minutes; the paper scale runs every
// figure and table at default size.
//
// -steal-policy NAME overlays a work-stealing policy (victim selection ×
// steal amount: uniform, hier, locality, each optionally -half; see
// internal/core.ParseStealPolicy) on every experiment's fork-join runtimes.
// The default empty policy is byte-identical to the paper's uniform random
// steal-one — all committed goldens are produced under it.
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
// per-job progress on stderr. Every file of a run folder is a pure function
// of manifest, scale and flags, byte-identical for every -parallel value:
// each simulation runs on its own sequential single-clock engine and rows
// are reassembled in grid order. Host throughput is measured by benchmark/,
// not here.
//
// Observability: every entry's first fork-join run leaves its deterministic
// metrics registry in metrics/<id>.tsv; -trace json|chrome also records its
// full layered event trace in trace/<id>.json, as raw JSON or as Chrome
// trace format (open in https://ui.perfetto.dev). A raw JSON trace feeds
// `repro analyze`, which decomposes each worker's virtual time into busy /
// steal-search / steal-transfer / outstanding-join / fabric-wait buckets
// and cross-checks every total against the embedded counter-derived
// statistics — the trace and the stats must agree to the tick.
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
	return fmt.Errorf("usage: repro {run|fig6|table2|fig7|fig8|fig9|table3|fig12|resilience|stealzoo|serve|validate|analyze} [flags]")
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

func parseName(s string) (string, error)   { return s, nil }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// bindParams registers every experiment parameter as a flag writing straight
// into p. A zero Params field means "unset" (see manifest.Params), so the
// flags default to zero and an unset flag leaves the spec's — or the
// manifest entry's — value in force, while one given explicitly overrides
// it everywhere. Each flag is named by its field's JSON tag with "_"
// spelled "-" (TestParamsHaveFlags). `repro run` defines -scale (the
// manifest scale) first, so there the problem-size shift has no flag.
func bindParams(fs *flag.FlagSet, p *manifest.Params) {
	fs.StringVar(&p.Bench, "bench", "", "pfor or recpfor (default recpfor)")
	fs.StringVar(&p.Machine, "machine", "", "itoa or wisteria (default itoa; fig9: wisteria; resilience, stealzoo: both)")
	fs.IntVar(&p.Workers, "workers", 0, "simulated cores (0 = experiment default)")
	if fs.Lookup("scale") == nil {
		fs.IntVar(&p.Scale, "scale", 0, "problem-size scale shift (+k doubles sizes k times)")
	}
	fs.StringVar(&p.Tree, "tree", "", "UTS tree: T1L, T1XXL or T1WL (default T1L)")
	fs.IntVar(&p.SeqDepth, "seqdepth", 0, "UTS: serialize the bottom D tree levels per task (default 3)")
	listFlag(fs, &p.WorkersList, "workers-list", "comma-separated worker counts for sweeps", strconv.Atoi)
	fs.IntVar(&p.N, "n", 0, "problem size override")
	fs.Int64Var(&p.Seed, "seed", 0, "RNG seed (default 42)")
	fs.IntVar(&p.WorkScale, "workscale", 0, "UTS: multiply per-node work (one node stands for k)")
	fs.IntVar(&p.DequeCap, "dequecap", 0, "per-worker simulated deque capacity, the overflow bound (0 = runtime default 8192)")
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

// run executes one repro invocation against the given writers. Tables and
// the run summary go to stdout; progress and errors go to stderr.
func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) < 1 {
		return usageErr()
	}
	cmd, args := argv[0], argv[1:]
	switch cmd {
	case "validate":
		return runValidate(args, stdout, stderr)
	case "analyze":
		return runAnalyze(args, stdout, stderr)
	}
	if cmd != "run" && manifest.Lookup(cmd) == nil {
		return usageErr()
	}
	return runManifest(cmd, args, stdout, stderr)
}

// runManifest is `repro run` and every experiment subcommand: select the
// entries — a manifest scale's, or the one entry {id: cmd, experiment: cmd}
// recorded under scale cmd — overlay the param flags on each, and execute
// them with manifest.Runner into one run folder. Only the smoke scale, the
// golden grid, is validated; a golden mismatch is a non-zero exit.
func runManifest(cmd string, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := cmd
	var only []string
	var manifestPath, goldensDir string
	var noValidate bool
	if cmd == "run" {
		fs.StringVar(&scale, "scale", "smoke", "manifest scale to run (smoke, paper, or the experiment name a subcommand's run folder records)")
		listFlag(fs, &only, "only", "comma-separated entry IDs or experiment names to run (default: all)", parseName)
		fs.StringVar(&manifestPath, "manifest", "", "manifest JSON file (default: the committed experiments.json built into the binary)")
		fs.StringVar(&goldensDir, "goldens", "", goldensUsage)
		fs.BoolVar(&noValidate, "no-validate", false, "skip golden validation of the smoke scale")
	}
	var overlay manifest.Params
	bindParams(fs, &overlay)
	parallel := new(int)
	positiveFlag(fs, parallel, "parallel", runtime.NumCPU(), "host worker pool for each entry's sweep grid, at least 1 (1 = sequential; default: all CPUs)")
	quiet := fs.Bool("quiet", false, "suppress per-entry and per-job progress on stderr")
	out := fs.String("out", "paper_runs", "parent directory for run folders")
	stamp := fs.String("stamp", "", "run folder name (default: UTC timestamp)")
	trace := fs.String("trace", "", "also write each entry's first fork-join run's event trace to trace/<id>.json: json (for `repro analyze`) or chrome (for ui.perfetto.dev)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file, recording every allocation of the run")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: repro %s [flags] (unexpected argument %q)", cmd, fs.Arg(0))
	}

	entries := []manifest.Entry{{ID: cmd, Experiment: cmd}}
	if cmd == "run" {
		m := manifest.Default()
		if manifestPath != "" {
			data, err := os.ReadFile(manifestPath)
			if err != nil {
				return err
			}
			if m, err = manifest.Parse(data); err != nil {
				return err
			}
		}
		var err error
		if entries, err = m.Select(scale, only); err != nil {
			return err
		}
	}
	for i := range entries {
		entries[i].Params = entries[i].Params.Merge(overlay)
	}
	// The one place that decides what is checked against the goldens: the
	// smoke scale is the grid they were made from.
	var goldens manifest.Goldens
	if scale == "smoke" && !noValidate {
		var err error
		if goldensDir != "" {
			goldens = manifest.DirGoldens(goldensDir)
		} else if goldens, err = defaultGoldens(); err != nil {
			return fmt.Errorf("%w, or -no-validate", err)
		}
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
		// Record every allocation of the run, not one per 512 KiB, so the
		// profile's object and byte counts are exact.
		runtime.MemProfileRate = 1
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
		// A sequential sweep is one engine at a time, whose proc handoffs
		// are coroutine switches on its own thread (see internal/sim's
		// "Host performance" note): keep the Go scheduler on one OS thread,
		// restoring the setting on return. With a parallel pool the engines
		// need all host threads instead.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	st := *stamp
	if st == "" {
		st = time.Now().UTC().Format("20060102T150405")
	}
	rn := &manifest.Runner{
		Stamp: st, Scale: scale, OutDir: *out, Goldens: goldens,
		Parallel: *parallel, Trace: *trace,
		Stdout: stdout, Stderr: stderr, Quiet: *quiet,
	}
	rep, err := rn.Run(entries)
	if err != nil {
		return err
	}
	if rep.Mismatches > 0 {
		return fmt.Errorf("repro %s: %d series mismatch the committed goldens (see report above)", cmd, rep.Mismatches)
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
