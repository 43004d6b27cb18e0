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

	"contsteal/internal/manifest"
)

// runSmoke executes `repro run -scale smoke` into out with the given extra
// flags and returns the run folder path.
func runSmoke(out string, extra ...string) (string, error) {
	args := append([]string{"run", "-scale", "smoke", "-out", out, "-stamp", "t", "-quiet"}, extra...)
	var stdout bytes.Buffer
	if err := run(args, &stdout, io.Discard); err != nil {
		return "", fmt.Errorf("repro %s: %v\n%s", strings.Join(args, " "), err, stdout.String())
	}
	return filepath.Join(out, "t"), nil
}

// smokeConfig is one execution configuration of the full smoke scale whose
// run folder the suite shares: a run costs ~20 s, and a dozen tests assert
// over the same three configurations (golden fixtures, -parallel
// independence, -shards independence), so each is run once, on first use,
// and kept for the life of the test binary. No test re-runs a kernel the
// smoke scale already ran.
type smokeConfig struct {
	flags []string
	once  sync.Once
	dir   string
	err   error
}

var (
	smokeBase    = &smokeConfig{flags: []string{"-parallel", "8"}}
	smokeSeq     = &smokeConfig{flags: []string{"-parallel", "1"}}
	smokeSharded = &smokeConfig{flags: []string{"-parallel", "8", "-shards", "4"}}
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
		if *update {
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
// reproduced the committed fixture byte-for-byte (or, under -update, rewrites
// the fixture from it).
func checkSmokeGolden(t *testing.T, c *smokeConfig, id, fixture string) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(smokeDir(t, c), "tsv", id, fixture))
	if err != nil {
		t.Fatalf("smoke entry %s did not produce %s: %v", id, fixture, err)
	}
	golden := filepath.Join("testdata", fixture)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if d := manifest.Diff(got, want); d != "" {
		t.Errorf("smoke %s entry %s: %s diverges from the golden fixture: %s", strings.Join(c.flags, " "), id, fixture, d)
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
// against the committed goldens, and the whole run folder — every file, the
// summary included — is identical across host-parallelism widths, and
// across engine shard counts but for the two summary columns that state the
// sharding itself.
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

	// The summary states deterministic counters only — no wall-derived
	// column, no perf artifact beside it — and covers the whole registry.
	header, rows := summaryCells(t, snap)
	if got, want := strings.Join(header, " "), "id experiment shards jobs events handoffs cross_shard golden summary"; got != want {
		t.Errorf("summary.tsv header = %q, want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(base, "bench")); err == nil {
		t.Error("run folder still has a bench/ directory")
	}
	ran := map[string]bool{}
	for _, row := range rows {
		ran[row["experiment"]] = true
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

	// Byte-identity of the folder across execution knobs. Sharding may show
	// only in the shards and cross_shard cells: with those dropped the
	// summaries must agree too, events and handoffs included — and the
	// sharded run must really have sharded, or the comparison says nothing.
	diffSnapshots(t, "parallel 8 vs 1", snap, snapshotRun(t, smokeDir(t, smokeSeq)))
	dropShardCells := func(s map[string]string) (crossed bool) {
		header, rows := summaryCells(t, s)
		var b strings.Builder
		for _, row := range rows {
			crossed = crossed || row["shards"] != "1" && row["cross_shard"] != "0"
			for _, h := range header {
				if h != "shards" && h != "cross_shard" {
					b.WriteString(row[h] + "\t")
				}
			}
			b.WriteString("\n")
		}
		s["summary.tsv"] = b.String()
		return crossed
	}
	sharded := snapshotRun(t, smokeDir(t, smokeSharded))
	if dropShardCells(snap) || !dropShardCells(sharded) {
		t.Error("want no entry sharded at -shards 1, and one with several shards and cross-shard events at -shards 4")
	}
	diffSnapshots(t, "shards 1 vs 4", snap, sharded)

	// Every fork-join entry leaves its first run's metrics registry in the
	// folder — including the resilience and stealzoo grids, which once
	// never claimed the collector.
	for _, id := range []string{"fig6_pfor", "fig9", "resilience", "stealzoo", "serve_itoa"} {
		if snap[filepath.Join("metrics", id+".tsv")] == "" {
			t.Errorf("run folder lacks a non-empty metrics/%s.tsv", id)
		}
	}
}

// TestValidateDetectsMismatch corrupts one byte of a produced series and
// checks that `repro validate` localises it with a line/offset diff report.
func TestValidateDetectsMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pipeline entry")
	}
	dir, err := runSmoke(t.TempDir(), "-only", "fig6_pfor")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tsv", "fig6_pfor", "fig6_pfor_itoa.tsv")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
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

// TestFig9MachineOverride is the CLI-level regression test for the dispatch
// bug fixed by the registry refactor: `repro fig9 -machine itoa` used to
// silently flip back to wisteria (and `repro all` ignored -machine/-tree
// overrides entirely).
func TestFig9MachineOverride(t *testing.T) {
	fig9 := func(extra ...string) (string, string) {
		t.Helper()
		dir := t.TempDir()
		args := append([]string{"fig9", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
			"-tsv", dir, "-quiet", "-parallel", "1"}, extra...)
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*.tsv"))
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return stdout.String(), strings.Join(names, ",")
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
