package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"contsteal/internal/digest"
	"contsteal/internal/manifest"
)

// runInto runs one repro invocation quietly into the run folder <out>/t and
// returns the folder and what it printed on stdout.
func runInto(out string, argv ...string) (string, string, error) {
	args := append(append([]string{}, argv...), "-out", out, "-stamp", "t", "-quiet")
	var stdout bytes.Buffer
	if err := run(args, &stdout, io.Discard); err != nil {
		return "", stdout.String(), fmt.Errorf("repro %s: %v", strings.Join(args, " "), err)
	}
	return filepath.Join(out, "t"), stdout.String(), nil
}

// runFolder is runInto a fresh temporary directory, failing the test on an
// error.
func runFolder(t *testing.T, argv ...string) (string, string) {
	t.Helper()
	dir, stdout, err := runInto(t.TempDir(), argv...)
	if err != nil {
		t.Fatal(err)
	}
	return dir, stdout
}

// matchGolden holds the file at path to the committed fixture of that name
// in testdata/, byte for byte; with rewrite under -update it refreshes the
// fixture from path instead.
func matchGolden(t *testing.T, path, fixture string, rewrite bool) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected output %s was not produced: %v", fixture, err)
	}
	golden := filepath.Join("testdata", fixture)
	if rewrite && *digest.Update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing fixture %s (create it with `go test ./cmd/repro -update`): %v", golden, err)
	}
	if d := manifest.Diff(got, want); d != "" {
		t.Errorf("%s diverges from the golden fixture: %s", path, d)
	}
}

// runGolden runs one experiment subcommand at small scale into a run folder
// and holds each produced series of tsv/<experiment>/ to its committed
// fixture. It never rewrites a fixture: the smoke scale is their source.
func runGolden(t *testing.T, argv []string, fixtures ...string) {
	t.Helper()
	dir, _ := runFolder(t, append(argv, "-parallel", "4")...)
	for _, name := range fixtures {
		matchGolden(t, filepath.Join(dir, "tsv", argv[0], name), name, false)
	}
}

// The golden grid is the smoke manifest: each TestGolden*TSV below asserts
// that the smoke entry with exactly the fixture's params reproduced it in
// the shared run folder (see smokeDir), and -update rewrites it from there.

func TestGoldenFig6TSV(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "fig6_pfor", "fig6_pfor_itoa.tsv")
}

func TestGoldenFig8TSV(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "fig8", "uts_T1L'_itoa.tsv")
}

// TestGoldenFig9TSV pins the deepest UTS workload (T1WL', the fig9/wisteria
// configuration) as a golden fixture. The seqdepth keeps the slice small
// enough for CI while still exercising thousands of steals, migrations and
// remote frees — the byte-identical gate for engine-internals changes.
func TestGoldenFig9TSV(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "fig9", "uts_T1WL'_wisteria.tsv")
}

// TestGoldenResilienceTSV pins a micro slice of the fault-injection sweep:
// every system (ours, saws, charm, glb) under stragglers, latency jitter and
// (for the two-sided runtimes) message drops, on one machine. The slowdown
// column is the experiment's figure of merit; drops/retrans pin the
// retransmission protocol's exact behaviour. 72 workers span two ITO-A
// nodes, and seed 3 puts one node in the straggler set at level 0.1 and
// both at 0.3, so every scenario level pins a distinct regime. The slice is
// the smoke manifest's resilience entry, asserted over the shared run folder.
func TestGoldenResilienceTSV(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "resilience", "resilience_T1L'_itoa.tsv")
}

// TestResilienceParallelByteIdentical requires the perturbed sweep to stay
// byte-identical at any host pool width: fault injection must not leak host
// scheduling into virtual time (all perturbation RNG is per-job state).
func TestResilienceParallelByteIdentical(t *testing.T) {
	diffSnapshots(t, "resilience -parallel 8 vs 1",
		entryFiles(t, smokeDir(t, smokeBase), "resilience"),
		entryFiles(t, smokeDir(t, smokeSeq), "resilience"))
}

// traceOnGolden runs one golden slice as an experiment subcommand with
// -trace json and requires: the TSV series still byte-identical to the
// committed (tracing-off) fixture — observability only observes — a
// trace/<experiment>.json that `repro analyze` accepts (it decodes the file,
// rejects an empty trace and runs Trace.Verify behind its delay-attribution
// cross-check), and a non-empty metrics registry.
func traceOnGolden(t *testing.T, argv []string, fixture string) {
	t.Helper()
	exp := argv[0]
	dir, _ := runFolder(t, append(append([]string{}, argv...), "-trace", "json", "-parallel", "4")...)
	matchGolden(t, filepath.Join(dir, "tsv", exp, fixture), fixture, false)
	if err := run([]string{"analyze", filepath.Join(dir, "trace", exp+".json")}, io.Discard, io.Discard); err != nil {
		t.Errorf("analyze on produced trace: %v", err)
	}
	if m, err := os.ReadFile(filepath.Join(dir, "metrics", exp+".tsv")); err != nil || len(m) == 0 {
		t.Errorf("metrics TSV missing or empty (err=%v, %d bytes)", err, len(m))
	}
}

// TestResilienceTraceOn is the regression test for the resilience grid never
// observing a run: a traced run ran the whole sweep and
// then failed with "no fork-join runtime job ran". The first "ours" grid
// point (the unperturbed baseline) is the one traced.
func TestResilienceTraceOn(t *testing.T) {
	traceOnGolden(t,
		[]string{"resilience", "-machine", "itoa", "-tree", "T1L", "-workers", "72", "-seqdepth", "10", "-seed", "3"},
		"resilience_T1L'_itoa.tsv")
}

// TestGoldenPerturbOffEquivalence reruns the fig6 golden slice with a
// -perturb spec of zero magnitudes and requires byte-identical TSV: an
// inactive perturbation model must be a strict no-op on every timing path
// (it may not even consume RNG). This is the golden-equivalence gate CI runs.
func TestGoldenPerturbOffEquivalence(t *testing.T) {
	runGolden(t,
		[]string{"fig6", "-bench", "pfor", "-workers", "18", "-n", "128", "-seed", "7", "-perturb", "seed=1"},
		"fig6_pfor_itoa.tsv")
}

// TestGoldenFig6TSVTraceOn reruns the fig6 golden slice with tracing and
// metrics enabled and requires the TSV series to stay byte-identical to the
// same committed fixture: observability must only observe — it cannot
// perturb virtual time. The produced trace must also pass the analyze
// cross-check and the metrics TSV must be non-empty.
func TestGoldenFig6TSVTraceOn(t *testing.T) {
	traceOnGolden(t,
		[]string{"fig6", "-bench", "pfor", "-workers", "18", "-n", "128", "-seed", "7"},
		"fig6_pfor_itoa.tsv")
}

// TestGoldenTraceJSON pins the complete event log of a micro UTS run (the
// fig9 configuration at tiny scale) as a byte-exact fixture: every span of
// every layer — scheduler, deque protocol, remote objects, stack migration,
// raw RDMA — in engine-dispatch order. Any change to protocol structure,
// cost charging, or event ordering shows up as a fixture diff. Refresh with
// `go test ./cmd/repro -update`.
func TestGoldenTraceJSON(t *testing.T) {
	dir, _ := runFolder(t, "fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
		"-trace", "json", "-parallel", "4")
	matchGolden(t, filepath.Join(dir, "trace", "fig9.json"), "trace_uts_micro.json", true)
	// The committed fixture must itself pass the delay-attribution
	// cross-check: trace totals == counter totals, to the tick.
	if err := run([]string{"analyze", filepath.Join("testdata", "trace_uts_micro.json")}, io.Discard, io.Discard); err != nil {
		t.Errorf("analyze on golden fixture: %v", err)
	}
}

// TestGoldenServeTSV and TestGoldenServeTSVWisteria pin the serve slice of
// the smoke entries serve_itoa and serve_wisteria: both arrival processes
// and admission policies across the saturation knee, on two systems, with
// seed 11 chosen so the token bucket rejects a nonzero fraction at load ≥ 1
// — the fixtures pin admission, injection, completion, the exact sojourn
// percentiles (integer nanoseconds) and the per-request attribution bands,
// in two files per machine.
func TestGoldenServeTSV(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "serve_itoa", "serve_itoa.tsv", "serve_requests_itoa.tsv")
}

func TestGoldenServeTSVWisteria(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "serve_wisteria", "serve_wisteria.tsv", "serve_requests_wisteria.tsv")
}

// serveTraceArgs generates the committed micro serve trace: one "ours" cell
// small enough to commit, with enough load that requests overlap and steal /
// fabric / queue components all appear.
var serveTraceArgs = []string{"serve", "-machine", "itoa", "-workers", "6", "-requests", "24",
	"-seed", "11", "-systems", "ours", "-arrivals", "poisson", "-admits", "always",
	"-loads", "1", "-trace", "json", "-parallel", "4"}

// TestGoldenServeTraceJSON pins the complete event log of a micro open-system
// run — serve lifecycle instants, request-tagged spans, and the embedded
// ServeCheck block — as a byte-exact fixture, then requires the committed
// fixture to pass the `analyze -requests` cross-check: per-request components
// summing to the sojourn and percentiles agreeing with the counters, to the
// tick. Refresh with `go test ./cmd/repro -update`.
func TestGoldenServeTraceJSON(t *testing.T) {
	dir, _ := runFolder(t, serveTraceArgs...)
	matchGolden(t, filepath.Join(dir, "trace", "serve.json"), "trace_serve_micro.json", true)
	golden := filepath.Join("testdata", "trace_serve_micro.json")
	var out bytes.Buffer
	if err := run([]string{"analyze", "-requests", golden}, &out, io.Discard); err != nil {
		t.Errorf("analyze -requests on golden fixture: %v", err)
	}
	if !strings.Contains(out.String(), "trace and counters agree") {
		t.Errorf("analyze -requests did not report agreement:\n%s", out.String())
	}
	// The per-rank mode works on serve traces too.
	if err := run([]string{"analyze", golden}, io.Discard, io.Discard); err != nil {
		t.Errorf("analyze on serve fixture: %v", err)
	}
}

// TestAnalyzeRequestsDetectsCorruption corrupts the committed serve trace one
// way at a time and asserts the non-zero-exit path: run() must return a
// one-line error naming the cause, which main() turns into exit code 2. A
// corrupted counter or a request window moved by a tick is caught by the
// request cross-check (and by VerifyRequests and CheckRequests alike, with
// the same words); a file no run can have written — negative workers, an
// event on a rank the trace does not have, a negative duration, event time or
// exec_time — is rejected when it is read, in both modes, naming the field
// and the event.
func TestAnalyzeRequestsDetectsCorruption(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "trace_serve_micro.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, old, new string
		want           string
		malformed      bool
	}{
		{name: "completed counter", old: `"completed":`, new: `"completed":1`, want: "analyze -requests"},
		{name: "admitted counter", old: `"admitted":`, new: `"admitted":1`, want: "analyze -requests"},
		{name: "request window", old: `"at":341,"end":1101`, new: `"at":341,"end":1102`, want: "request 0: trace window [341,1101] stats window [341,1102]"},
		{name: "negative workers", old: `"workers":`, new: `"workers":-`, want: "workers must be non-negative, got -6", malformed: true},
		{name: "rank out of range", old: `"rank":1,`, new: `"rank":7,`, want: "events[1]: rank 7 outside [0, 6)", malformed: true},
		{name: "negative dur", old: `"dur":801,"rank":2`, new: `"dur":-801,"rank":2`, want: "events[2]: dur must be non-negative, got -801", malformed: true},
		{name: "negative t", old: `"t":341,`, new: `"t":-5,`, want: "events[6]: t must be non-negative, got -5", malformed: true},
		{name: "negative exec_time", old: `"exec_time":`, new: `"exec_time":-`, want: "exec_time must be non-negative, got -21208", malformed: true},
	} {
		bad := strings.Replace(string(data), tc.old, tc.new, 1)
		if bad == string(data) {
			t.Fatalf("%s: fixture lacks %q", tc.name, tc.old)
		}
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		modes := [][]string{{"analyze", "-requests", path}}
		if tc.malformed {
			modes = append(modes, []string{"analyze", path})
		}
		for _, argv := range modes {
			var stdout bytes.Buffer
			err := run(argv, &stdout, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: run(%v) = %v, want a one-line error containing %q", tc.name, argv[:len(argv)-1], err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("%s: run(%v) printed a report before rejecting the file:\n%s", tc.name, argv[:len(argv)-1], stdout.String())
			}
		}
		if tc.malformed {
			continue
		}
		tr, err := loadTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		verr, cerr := tr.VerifyRequests(), tr.CheckRequests(tr.RequestAttribution())
		if verr == nil || cerr == nil || verr.Error() != cerr.Error() {
			t.Errorf("%s: VerifyRequests = %v but CheckRequests(RequestAttribution()) = %v", tc.name, verr, cerr)
		}
	}
	// A closed-system trace is rejected outright in request mode.
	if err := run([]string{"analyze", "-requests",
		filepath.Join("testdata", "trace_uts_micro.json")}, io.Discard, io.Discard); err == nil {
		t.Error("analyze -requests accepted a closed-system trace")
	}
}

// TestAnalyzePrintsTheCheckedRows holds `repro analyze`'s cross-check table
// to the rows Trace.Verify compares — same names, order and values, from one
// source (Trace.CheckRanks) — on both fixtures and on a copy whose busy-time
// counter is off by a tick, where the table must show the two sides apart and
// the error must be Verify's. On every file VerifyRequests and
// CheckRequests(RequestAttribution()) return the same thing.
func TestAnalyzePrintsTheCheckedRows(t *testing.T) {
	serve, err := os.ReadFile(filepath.Join("testdata", "trace_serve_micro.json"))
	if err != nil {
		t.Fatal(err)
	}
	offByOne := filepath.Join(t.TempDir(), "busy.json")
	if err := os.WriteFile(offByOne, bytes.Replace(serve, []byte(`"busy_time":26220`), []byte(`"busy_time":26221`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	cols := regexp.MustCompile(` {2,}`)
	for _, path := range []string{filepath.Join("testdata", "trace_uts_micro.json"), filepath.Join("testdata", "trace_serve_micro.json"), offByOne} {
		tr, err := loadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		_, rows, checkErr := tr.CheckRanks(tr.Attribution())
		if verr := tr.Verify(); fmt.Sprint(verr) != fmt.Sprint(checkErr) || (path == offByOne) != (verr != nil) {
			t.Errorf("%s: Verify = %v, CheckRanks(Attribution()) = %v", path, verr, checkErr)
		}
		var out bytes.Buffer
		err = run([]string{"analyze", path}, &out, io.Discard)
		if (err == nil) != (checkErr == nil) || (err != nil && err.Error() != "analyze: "+checkErr.Error()) {
			t.Errorf("%s: analyze = %v, Verify = %v", path, err, checkErr)
		}
		_, table, ok := strings.Cut(out.String(), "quantity")
		lines := strings.Split(table, "\n")
		if !ok || len(lines) < 1+len(rows) {
			t.Fatalf("%s: no cross-check table of %d rows in:\n%s", path, len(rows), out.String())
		}
		for i, r := range rows {
			got := cols.Split(strings.TrimSpace(lines[1+i]), -1)
			want := []string{r.Name, fmt.Sprint(r.Trace), fmt.Sprint(r.Counters)}
			if !slices.Equal(got, want) {
				t.Errorf("%s: table row %d is %q, Verify compares %q", path, i, got, want)
			}
		}
		if verr, cerr := tr.VerifyRequests(), tr.CheckRequests(tr.RequestAttribution()); fmt.Sprint(verr) != fmt.Sprint(cerr) {
			t.Errorf("%s: VerifyRequests = %v but CheckRequests(RequestAttribution()) = %v", path, verr, cerr)
		}
	}
}

// TestServeParallelByteIdentical requires the serve entries of the shared
// smoke runs to be byte-identical at -parallel 8 and 1: open-system arrivals
// are engine timers, so host pool width may not leak into virtual time.
func TestServeParallelByteIdentical(t *testing.T) {
	for _, id := range []string{"serve_itoa", "serve_wisteria"} {
		diffSnapshots(t, id+" -parallel 8 vs 1",
			entryFiles(t, smokeDir(t, smokeBase), id), entryFiles(t, smokeDir(t, smokeSeq), id))
	}
}

// TestCLIParallelByteIdentical is the end-to-end form of the sweep
// determinism guarantee and of the subcommand's provenance: `repro fig6` at
// -parallel 1, then `repro run -manifest <its folder>/manifest.json -scale
// fig6` at -parallel 8, must print the same bytes (tables and summary, the
// folder path aside) and write byte-identical run folders.
func TestCLIParallelByteIdentical(t *testing.T) {
	seqDir, seq := runFolder(t, "fig6", "-bench", "recpfor", "-workers", "18", "-n", "64", "-seed", "7", "-parallel", "1")
	parDir, par := runFolder(t, "run", "-manifest", filepath.Join(seqDir, "manifest.json"), "-scale", "fig6", "-parallel", "8")
	seq = strings.ReplaceAll(seq, seqDir, "<dir>")
	if par = strings.ReplaceAll(par, parDir, "<dir>"); seq != par {
		t.Errorf("the re-run at -parallel 8 printed other bytes than -parallel 1:\n--- 1 ---\n%s--- 8 ---\n%s", seq, par)
	}
	snap := snapshotRun(t, seqDir)
	diffSnapshots(t, "fig6 -parallel 1 vs its re-run at 8", snap, snapshotRun(t, parDir))
	if !strings.Contains(seq, "Fig. 6") || !strings.Contains(snap[filepath.Join("json", "fig6.json")], `"name": "fig6_recpfor_itoa"`) {
		t.Errorf("output missing table or JSON section:\n%s", seq)
	}
}

// TestEngineStatsLine pins the engine columns of summary.tsv: every entry's
// resumptions (handoffs) split into in-place, inline (a continuation ran in
// the goroutine's stead) and the goroutine switches that remain, so in-place
// plus inline never exceeds the handoffs, and a fork-join entry's idle
// cycles run on the engine, so inline is never zero for one.
func TestEngineStatsLine(t *testing.T) {
	_, rows := summaryCells(t, snapshotRun(t, smokeDir(t, smokeBase)))
	for _, row := range rows {
		var n [4]uint64
		for i, col := range []string{"events", "handoffs", "inplace", "inline"} {
			var err error
			if n[i], err = strconv.ParseUint(row[col], 10, 64); err != nil {
				t.Fatalf("%s: %s = %q: %v", row["id"], col, row[col], err)
			}
		}
		if n[1] == 0 || n[3] == 0 || n[2]+n[3] > n[1] {
			t.Errorf("%s: handoffs %d, inplace %d, inline %d: want inplace + inline <= handoffs and an inline wake-up", row["id"], n[1], n[2], n[3])
		}
	}
}

// TestUsageErrors pins the bad-input contract: an unknown subcommand (the
// usage line; the retired enginebench and all are ones), a retired output
// flag, a malformed list, an out-of-range count, depth, scale or load, a pool
// width below 1 and the retired -shards flag all fail before any simulation
// runs, naming the offending field (or flag) and value, with nothing else
// printed; a job that cannot run at the given capacity (deque too small,
// load no run can complete) fails as one line naming the job and the cause,
// never as a panic out of run.
func TestUsageErrors(t *testing.T) {
	for _, argv := range [][]string{nil, {"nosuch"}, {"fig9", "-workers-list", "1,x"}, {"serve", "-loads", "0.5,"}} {
		if err := run(argv, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) did not fail", argv)
		}
	}
	for _, cmd := range []string{"enginebench", "all"} {
		if err := run([]string{cmd}, io.Discard, io.Discard); err == nil || !strings.HasPrefix(err.Error(), "usage: repro {") {
			t.Errorf("run(%s) = %v, want the usage line", cmd, err)
		}
	}
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"fig6", "-tsv", "x"}, "flag provided but not defined: -tsv"},
		{[]string{"fig6", "-json", "-"}, "flag provided but not defined: -json"},
		{[]string{"fig6", "-metrics", "x"}, "flag provided but not defined: -metrics"},
		{[]string{"fig6", "-trace-format", "chrome"}, "flag provided but not defined: -trace-format"},
		{[]string{"fig6", "-engine-stats"}, "flag provided but not defined: -engine-stats"},
		{[]string{"fig6", "-trace", "xml"}, `unknown trace format "xml" (want json or chrome)`},
		{[]string{"fig6", "extra"}, `unexpected argument "extra"`},
		{[]string{"fig9", "-workers-list", "0"}, "workers_list must be positive, got 0"},
		{[]string{"fig12", "-workers-list", "18,-2"}, "workers_list must be positive, got -2"},
		{[]string{"fig6", "-workers", "-3"}, "workers must be positive, got -3"},
		{[]string{"table3", "-n", "-1024"}, "n must be positive, got -1024"},
		{[]string{"run", "-scale", "paper", "-workers", "-3"}, "workers must be positive, got -3"},
		{[]string{"fig9", "-tree", "T1WL", "-workers-list", "12", "-seqdepth", "-1"}, "seqdepth must be non-negative, got -1"},
		{[]string{"fig8", "-workscale", "-2"}, "workscale must be non-negative, got -2"},
		{[]string{"fig6", "-dequecap", "-1"}, "dequecap must be non-negative, got -1"},
		{[]string{"serve", "-loads", "0.5,0"}, "loads must be positive, got 0"},
		{[]string{"serve", "-loads", "-1"}, "loads must be positive, got -1"},
		{[]string{"serve", "-requests", "0"}, `invalid value "0" for flag -requests: must be at least 1`},
		{[]string{"fig6", "-parallel", "-2"}, `invalid value "-2" for flag -parallel: must be at least 1`},
		{[]string{"run", "-parallel", "0"}, `invalid value "0" for flag -parallel: must be at least 1`},
		{[]string{"fig6", "-shards", "2"}, "flag provided but not defined: -shards"},
		{[]string{"fig6", "-scale", "-1"}, "scale must be in [0, 16], got -1"},
		{[]string{"fig6", "-scale", "70"}, "scale must be in [0, 16], got 70"},
		{[]string{"fig6", "-dequecap", "1", "-workers", "4", "-n", "64", "-parallel", "2"}, "queue overflow (cap 1)"},
		{[]string{"fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "6", "-dequecap", "1", "-parallel", "2"}, "job [fig9 tree=T1L system=ours workers=4"},
		{[]string{"serve", "-loads", "1e-9", "-requests", "8", "-workers", "4", "-parallel", "2"}, "serve did not complete by"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append(tc.argv, "-quiet", "-out", t.TempDir()), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v) = %v, want a one-line error containing %q", tc.argv, err, tc.want)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("run(%v) printed before rejecting its input:\n%s%s", tc.argv, stdout.String(), stderr.String())
		}
	}
}

// TestSinksFailBeforeTheSimulation: a run folder that cannot be made — its
// parent is a regular file, it already exists — is reported before the first
// entry runs, with no progress line and no table, and an existing folder is
// left as it was.
func TestSinksFailBeforeTheSimulation(t *testing.T) {
	taken := t.TempDir()
	if err := os.Mkdir(filepath.Join(taken, "t"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ out, want string }{
		{filepath.Join(os.DevNull, "runs"), "manifest: mkdir " + os.DevNull},
		{taken, "manifest: run folder " + filepath.Join(taken, "t") + " already exists"},
	} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"fig6", "-bench", "pfor", "-workers", "4", "-n", "64", "-out", tc.out, "-stamp", "t"}, &stdout, &stderr)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("-out %s: run = %v, want a one-line error starting %q", tc.out, err, tc.want)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("-out %s: output before the folder was rejected:\n%s%s", tc.out, stdout.String(), stderr.String())
		}
	}
	if left, err := os.ReadDir(filepath.Join(taken, "t")); err != nil || len(left) != 0 {
		t.Errorf("the existing run folder was touched: %v, %v", left, err)
	}
}
