package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"contsteal/internal/digest"
	"contsteal/internal/manifest"
)

// runSmoke executes `repro run -scale smoke` into out with the given extra
// flags and returns the run folder path.
func runSmoke(out string, extra ...string) (string, error) {
	dir, _, err := runInto(out, append([]string{"run", "-scale", "smoke"}, extra...)...)
	return dir, err
}

// smokeConfig is one execution configuration of the full smoke scale whose
// run folder the suite shares: a run costs ~20 s, and a dozen tests assert
// over the same two configurations (golden fixtures, -parallel
// independence), so each is run once, on first use,
// and kept for the life of the test binary. No test re-runs a kernel the
// smoke scale already ran.
type smokeConfig struct {
	flags []string
	once  sync.Once
	dir   string
	err   error
}

var (
	smokeBase = &smokeConfig{flags: []string{"-parallel", "8"}}
	smokeSeq  = &smokeConfig{flags: []string{"-parallel", "1"}}
)

// smokeRoot holds the shared run folders — outside any one test's TempDir,
// so later tests can read them; TestMain owns its lifetime.
var smokeRoot string

func TestMain(m *testing.M) {
	flag.Parse()
	var err error
	if smokeRoot, err = os.MkdirTemp("", "repro-smoke"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(smokeRoot)
	os.Exit(code)
}

// smokeDir returns c's run folder, running the pipeline the first time the
// configuration is asked for.
func smokeDir(t *testing.T, c *smokeConfig) string {
	t.Helper()
	if testing.Short() {
		t.Skip("asserts over the shared smoke-pipeline run folders, which are slow to build")
	}
	c.once.Do(func() {
		var out string
		if out, c.err = os.MkdirTemp(smokeRoot, "smoke"); c.err != nil {
			return
		}
		flags := c.flags
		if *digest.Update {
			// The fixtures are about to be rewritten from this run.
			flags = append(flags[:len(flags):len(flags)], "-no-validate")
		}
		c.dir, c.err = runSmoke(out, flags...)
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.dir
}

// entryFiles collects one entry's deterministic outputs from a run folder:
// its TSV series, JSON rows and metrics files, keyed by path relative to the
// folder.
func entryFiles(t *testing.T, dir, id string) map[string]string {
	t.Helper()
	files := map[string]string{}
	for rel, content := range snapshotRun(t, dir) {
		if strings.HasPrefix(rel, filepath.Join("tsv", id)+string(filepath.Separator)) ||
			rel == filepath.Join("json", id+".json") ||
			strings.HasPrefix(rel, filepath.Join("metrics", id+".")) {
			files[rel] = content
		}
	}
	if len(files) == 0 {
		t.Fatalf("run folder %s holds no outputs of entry %s", dir, id)
	}
	return files
}

// checkSmokeGolden asserts that entry id of the smoke run under c
// reproduced each committed fixture byte-for-byte (or, under -update,
// rewrites the fixtures from it).
func checkSmokeGolden(t *testing.T, c *smokeConfig, id string, fixtures ...string) {
	t.Helper()
	dir := smokeDir(t, c)
	for _, fixture := range fixtures {
		matchGolden(t, filepath.Join(dir, "tsv", id, fixture), fixture, true)
	}
}

// snapshotRun reads every file of a run folder, keyed by path relative to
// it: nothing in the folder carries a clock, so all of it is comparable.
func snapshotRun(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// summaryCells splits a snapshot's summary.tsv into its header and one map
// per entry row, keyed by column name.
func summaryCells(t *testing.T, snap map[string]string) ([]string, []map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(snap["summary.tsv"], "\n"), "\n")
	header := strings.Split(lines[0], "\t")
	var rows []map[string]string
	for _, line := range lines[1:] {
		cells := strings.Split(line, "\t")
		if len(cells) != len(header) {
			t.Fatalf("summary.tsv row %q has %d cells under a %d-column header", line, len(cells), len(header))
		}
		row := map[string]string{}
		for i, cell := range cells {
			row[header[i]] = cell
		}
		rows = append(rows, row)
	}
	return header, rows
}

// diffSnapshots fails the test unless the two run folders hold identical
// files, using manifest.Diff to localise any divergence.
func diffSnapshots(t *testing.T, label string, a, b map[string]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: run folders hold %d vs %d files", label, len(a), len(b))
	}
	for rel, want := range a {
		got, ok := b[rel]
		if !ok {
			t.Errorf("%s: %s missing from second run", label, rel)
			continue
		}
		if d := manifest.Diff([]byte(got), []byte(want)); d != "" {
			t.Errorf("%s: %s diverges: %s", label, rel, d)
		}
	}
}

// TestPipelineSmoke is the end-to-end contract of `repro run`: the smoke
// scale runs every registered experiment, self-validates byte-for-byte
// against the committed goldens — each fixture of testdata/ matched by
// exactly one series of the folder — and the whole run folder — every file,
// the summary included — is identical across host-parallelism widths.
func TestPipelineSmoke(t *testing.T) {
	base := smokeDir(t, smokeBase)
	snap := snapshotRun(t, base)

	// Self-validation already ran inside `repro run` (a mismatch is a
	// non-zero exit); `repro validate` must independently agree.
	var vout bytes.Buffer
	if err := run([]string{"validate", base}, &vout, io.Discard); err != nil {
		t.Fatalf("repro validate %s: %v\n%s", base, err, vout.String())
	}
	if !strings.Contains(vout.String(), "0 mismatches") {
		t.Errorf("validate report: %s", vout.String())
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.tsv"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no TSV fixtures in testdata/ (%v)", err)
	}
	checks, err := manifest.ValidateDir(base, manifest.DirGoldens("testdata"))
	if err != nil {
		t.Fatal(err)
	}
	ok, entryOK := map[string]int{}, map[string]int{}
	for _, c := range checks {
		if c.Status == "ok" {
			ok[c.Name]++
			entryOK[c.Entry]++
		}
	}
	for _, f := range fixtures {
		if n := ok[filepath.Base(f)]; n != 1 {
			t.Errorf("fixture %s got %d ok checks in the smoke folder, want exactly 1", filepath.Base(f), n)
		}
	}

	// The summary states deterministic counters only — no wall-derived
	// column, no perf artifact beside it — and covers the whole registry.
	header, rows := summaryCells(t, snap)
	if got, want := strings.Join(header, " "), "id experiment jobs events handoffs inplace inline golden summary"; got != want {
		t.Errorf("summary.tsv header = %q, want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(base, "bench")); err == nil {
		t.Error("run folder still has a bench/ directory")
	}
	// Every smoke entry pins at least one series and states its claim in
	// the summary: an experiment whose output no golden holds, or whose
	// Layout has no Summary, fails here.
	ran := map[string]bool{}
	for _, row := range rows {
		ran[row["experiment"]] = true
		if entryOK[row["id"]] == 0 {
			t.Errorf("smoke entry %s has no ok golden check, want at least 1", row["id"])
		}
		if row["summary"] == "-" {
			t.Errorf("smoke entry %s has summary -, want its key metrics", row["id"])
		}
		if row["experiment"] != "serve" {
			continue
		}
		_, goodput, _ := strings.Cut(row["summary"], "saturation_goodput_rps=")
		goodput, _, _ = strings.Cut(goodput, " ")
		if v, _ := strconv.ParseFloat(goodput, 64); v <= 0 {
			t.Errorf("%s summary lacks saturation_goodput_rps: %s", row["id"], row["summary"])
		}
	}
	for _, name := range manifest.Names() {
		if !ran[name] {
			t.Errorf("smoke summary lacks experiment %q", name)
		}
	}

	// Byte-identity of the folder across host-parallelism widths, manifest
	// and summary (events and handoffs included) too.
	diffSnapshots(t, "parallel 8 vs 1", snap, snapshotRun(t, smokeDir(t, smokeSeq)))

	// Every fork-join entry leaves its first run's metrics registry in the
	// folder — including the resilience and stealzoo grids, which once
	// never observed a run.
	for _, id := range []string{"fig6_pfor", "fig9", "resilience", "stealzoo", "serve_itoa"} {
		if snap[filepath.Join("metrics", id+".tsv")] == "" {
			t.Errorf("run folder lacks a non-empty metrics/%s.tsv", id)
		}
	}
}

// TestRunFlagsOverlayTheEntries: `repro run -perturb` sets the params
// of every selected entry, so a bad value fails the way a bad manifest knob
// does — one line, before the run folder exists — and a good one is what
// manifest.json records. A zero-magnitude model is a no-op, so the entry
// still reproduces its golden.
func TestRunFlagsOverlayTheEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pipeline entry")
	}
	out := t.TempDir()
	_, err := runSmoke(out, "-perturb", "jitter=-1")
	if err == nil || !strings.Contains(err.Error(), "params: perturb: jitter -1 is negative") ||
		strings.Count(err.Error(), "\n") > 1 { // runSmoke appends the (empty) stdout on a line of its own
		t.Errorf("run -perturb jitter=-1 = %v, want a one-line params error", err)
	}
	if _, err := os.Stat(filepath.Join(out, "t")); !os.IsNotExist(err) {
		t.Errorf("run -perturb jitter=-1 left a run folder behind (stat: %v)", err)
	}
	dir, err := runSmoke(out, "-only", "fig6_pfor", "-perturb", "seed=1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Scales["smoke"] {
		if e.Params.Perturb != "seed=1" {
			t.Errorf("manifest.json entry %s records perturb %q, want seed=1", e.ID, e.Params.Perturb)
		}
	}
}

// TestValidateDetectsMismatch corrupts one byte of a copy of a smoke series
// and checks that `repro validate` localises it with a line/offset diff
// report.
func TestValidateDetectsMismatch(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(smokeDir(t, smokeBase), "tsv", "fig6_pfor", "fig6_pfor_itoa.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tsv", "fig6_pfor"), 0o755); err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(filepath.Join(dir, "tsv", "fig6_pfor", "fig6_pfor_itoa.tsv"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var vout bytes.Buffer
	err = run([]string{"validate", dir}, &vout, io.Discard)
	if err == nil {
		t.Fatalf("validate accepted a corrupted series:\n%s", vout.String())
	}
	if !strings.Contains(vout.String(), "MISMATCH") ||
		!strings.Contains(vout.String(), "byte offset") ||
		!strings.Contains(vout.String(), "line ") {
		t.Errorf("mismatch report lacks localisation: %s", vout.String())
	}
}

// TestPaperScaleIsNotValidated is the regression test for the Runner
// comparing every scale's series with the smoke goldens by basename: the
// paper scale's fig6_pfor_itoa.tsv shares the golden's name but not its
// sizes, so `repro run -scale paper -only fig6_pfor` reported a MISMATCH and
// exited 2. Only the smoke scale is the golden grid; a paper-scale entry's
// verdict is "-". The param flags overlay the entry, as manifest.json shows.
func TestPaperScaleIsNotValidated(t *testing.T) {
	dir, stdout := runFolder(t, "run", "-scale", "paper", "-only", "fig6_pfor", "-workers", "4", "-n", "64")
	_, rows := summaryCells(t, snapshotRun(t, dir))
	if len(rows) != 1 || rows[0]["id"] != "fig6_pfor" || rows[0]["golden"] != "-" {
		t.Errorf("paper-scale summary rows %v, want fig6_pfor with golden verdict -", rows)
	}
	if strings.Contains(stdout, "validation:") || strings.Contains(stdout, "MISMATCH") {
		t.Errorf("a paper-scale run was validated:\n%s", stdout)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.Scales["paper"]; len(e) != 1 || e[0].Params.Workers != 4 || e[0].Params.N != 64 || e[0].Params.Bench != "pfor" {
		t.Errorf("manifest.json records %+v, want fig6_pfor with bench pfor, workers 4, n 64", e)
	}
}

// TestFig9MachineOverride is the CLI-level regression test for the dispatch
// bug fixed by the registry refactor: `repro fig9 -machine itoa` used to
// silently flip back to wisteria.
func TestFig9MachineOverride(t *testing.T) {
	fig9 := func(extra ...string) (string, string) {
		t.Helper()
		dir, stdout := runFolder(t, append([]string{"fig9", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
			"-parallel", "1"}, extra...)...)
		names, _ := filepath.Glob(filepath.Join(dir, "tsv", "fig9", "*.tsv"))
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return stdout, strings.Join(names, ",")
	}
	out, series := fig9("-machine", "itoa", "-tree", "T1L")
	if !strings.Contains(out, "on itoa") || series != "uts_T1L'_itoa.tsv" {
		t.Errorf("fig9 -machine itoa -tree T1L produced series %q:\n%s", series, out)
	}
	out, series = fig9()
	if !strings.Contains(out, "on wisteria") || series != "uts_T1L'_wisteria.tsv" {
		t.Errorf("fig9 default produced series %q:\n%s", series, out)
	}
}

// TestParamsHaveFlags is the guard for "a parameter is declared once": every
// manifest.Params field (ns excepted — it has never had a flag; -n covers the
// one-size case) must be settable through a cmd/repro flag named by the
// field's JSON tag with "_" spelled "-", that flag must write that field and
// no other, and no experiment flag may exist without a field. Adding a
// parameter is then one struct field plus the spec that reads it; forgetting
// the flag fails here. (Merge's half of the contract is TestMerge in
// internal/manifest.)
func TestParamsHaveFlags(t *testing.T) {
	sample := func(f reflect.Value) string {
		kind := f.Kind()
		if kind == reflect.Slice {
			kind = f.Type().Elem().Kind()
		}
		switch kind {
		case reflect.String:
			return "v"
		case reflect.Int, reflect.Int64:
			return "3"
		case reflect.Float64:
			return "1.5"
		case reflect.Bool:
			return "true"
		}
		t.Fatalf("Params has a field of kind %s: teach this test a sample value for it", f.Kind())
		return ""
	}
	typ := reflect.TypeOf(manifest.Params{})
	bound := 0
	for i := 0; i < typ.NumField(); i++ {
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if tag == "ns" {
			continue
		}
		bound++
		name := strings.ReplaceAll(tag, "_", "-")
		var p manifest.Params
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bindParams(fs, &p)
		if fs.Lookup(name) == nil {
			t.Errorf("Params.%s (json %q) has no -%s flag", typ.Field(i).Name, tag, name)
			continue
		}
		v := reflect.ValueOf(&p).Elem()
		if err := fs.Parse([]string{"-" + name + "=" + sample(v.Field(i))}); err != nil {
			t.Errorf("-%s: %v", name, err)
			continue
		}
		for j := 0; j < typ.NumField(); j++ {
			if set := !v.Field(j).IsZero(); set != (i == j) {
				t.Errorf("-%s: Params.%s set = %v, want %v", name, typ.Field(j).Name, set, i == j)
			}
		}
	}
	var p manifest.Params
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	bindParams(fs, &p)
	fs.VisitAll(func(*flag.Flag) { bound-- })
	if bound != 0 {
		t.Errorf("bindParams registers %d more flags than Params has fields: an experiment flag must be a Params field", -bound)
	}
}
