package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"contsteal/internal/manifest"
)

var update = flag.Bool("update", false, "rewrite the golden TSV fixtures under testdata/")

// runGolden executes one repro invocation at small scale, writing TSV into
// a scratch directory, and diffs each produced series against its committed
// fixture. `go test ./cmd/repro -update` refreshes the fixtures.
func runGolden(t *testing.T, argv []string, fixtures []string) {
	t.Helper()
	dir := t.TempDir()
	var stdout bytes.Buffer
	args := append(argv, "-tsv", dir, "-quiet", "-parallel", "4")
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	for _, name := range fixtures {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("expected TSV series %s was not produced: %v", name, err)
		}
		golden := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing fixture %s (create it with `go test ./cmd/repro -update`): %v", golden, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverges from golden fixture.\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

func TestGoldenFig6TSV(t *testing.T) {
	runGolden(t,
		[]string{"fig6", "-bench", "pfor", "-workers", "18", "-n", "128", "-seed", "7"},
		[]string{"fig6_pfor_itoa.tsv"})
}

func TestGoldenFig8TSV(t *testing.T) {
	runGolden(t,
		[]string{"fig8", "-tree", "T1L", "-workers-list", "9,18", "-seqdepth", "6", "-seed", "7"},
		[]string{"uts_T1L'_itoa.tsv"})
}

// TestGoldenFig9TSV pins the deepest UTS workload (T1WL', the fig9/wisteria
// configuration) as a golden fixture. The seqdepth keeps the slice small
// enough for CI while still exercising thousands of steals, migrations and
// remote frees — the byte-identical gate for engine-internals changes.
func TestGoldenFig9TSV(t *testing.T) {
	runGolden(t,
		[]string{"fig9", "-tree", "T1WL", "-workers-list", "12,24", "-seqdepth", "10", "-seed", "7"},
		[]string{"uts_T1WL'_wisteria.tsv"})
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

// traceOnGolden runs one golden slice through the CLI with -trace and
// -metrics on and requires: the TSV series still byte-identical to the
// committed (tracing-off) fixture — observability only observes — a trace
// that `repro analyze` accepts (it decodes the file, rejects an empty trace
// and runs Trace.Verify behind its delay-attribution cross-check), and a
// non-empty metrics registry.
func traceOnGolden(t *testing.T, argv []string, fixture string) {
	t.Helper()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.tsv")
	args := append(append([]string{}, argv...),
		"-trace", tracePath, "-metrics", metricsPath, "-tsv", dir, "-quiet", "-parallel", "4")
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	got, err := os.ReadFile(filepath.Join(dir, fixture))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("TSV with tracing on diverges from the tracing-off fixture.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := run([]string{"analyze", tracePath}, io.Discard, io.Discard); err != nil {
		t.Errorf("analyze on produced trace: %v", err)
	}
	if m, err := os.ReadFile(metricsPath); err != nil || len(m) == 0 {
		t.Errorf("metrics TSV missing or empty (err=%v, %d bytes)", err, len(m))
	}
}

// TestResilienceTraceOn is the regression test for the resilience grid never
// claiming the observability collector: -trace/-metrics ran the whole sweep
// and then failed with "no fork-join runtime job ran". The first "ours" grid
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
		[]string{"fig6_pfor_itoa.tsv"})
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
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace_uts_micro.json")
	args := []string{"fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
		"-trace", tracePath, "-quiet", "-parallel", "4"}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_uts_micro.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing fixture %s (create it with `go test ./cmd/repro -update`): %v", golden, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("event log diverges from golden fixture %s (%d vs %d bytes); run with -update if intended",
				golden, len(got), len(want))
		}
	}
	// The committed fixture must itself pass the delay-attribution
	// cross-check: trace totals == counter totals, to the tick.
	if err := run([]string{"analyze", golden}, io.Discard, io.Discard); err != nil {
		t.Errorf("analyze on golden fixture: %v", err)
	}
}

// serveGoldenArgs is the pinned serve slice: both arrival processes and
// admission policies across the saturation knee, on two systems, with seed
// 11 chosen so the token bucket rejects a nonzero fraction at load ≥ 1 —
// the fixture pins admission, injection, completion, and the exact sojourn
// percentiles (integer nanoseconds) in one file per machine.
func serveGoldenArgs(machine string) []string {
	return []string{"serve", "-machine", machine, "-workers", "18", "-requests", "96",
		"-seed", "11", "-systems", "ours,saws", "-arrivals", "poisson,mmpp",
		"-admits", "always,token", "-loads", "0.5,1,2"}
}

func TestGoldenServeTSV(t *testing.T) {
	runGolden(t, serveGoldenArgs("itoa"), []string{"serve_itoa.tsv", "serve_requests_itoa.tsv"})
}

func TestGoldenServeTSVWisteria(t *testing.T) {
	runGolden(t, serveGoldenArgs("wisteria"), []string{"serve_wisteria.tsv", "serve_requests_wisteria.tsv"})
}

// serveTraceArgs generates the committed micro serve trace: one "ours" cell
// small enough to commit, with enough load that requests overlap and steal /
// fabric / queue components all appear.
func serveTraceArgs(tracePath string) []string {
	return []string{"serve", "-machine", "itoa", "-workers", "6", "-requests", "24",
		"-seed", "11", "-systems", "ours", "-arrivals", "poisson", "-admits", "always",
		"-loads", "1", "-trace", tracePath, "-quiet", "-parallel", "4"}
}

// TestGoldenServeTraceJSON pins the complete event log of a micro open-system
// run — serve lifecycle instants, request-tagged spans, and the embedded
// ServeCheck block — as a byte-exact fixture, then requires the committed
// fixture to pass the `analyze -requests` cross-check: per-request components
// summing to the sojourn and percentiles agreeing with the counters, to the
// tick. Refresh with `go test ./cmd/repro -update`.
func TestGoldenServeTraceJSON(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace_serve_micro.json")
	if err := run(serveTraceArgs(tracePath), io.Discard, io.Discard); err != nil {
		t.Fatalf("repro serve: %v", err)
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_serve_micro.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing fixture %s (create it with `go test ./cmd/repro -update`): %v", golden, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("serve event log diverges from golden fixture %s (%d vs %d bytes); run with -update if intended",
				golden, len(got), len(want))
		}
	}
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

// TestServeParallelShardsByteIdentical drives the serve CLI end-to-end at
// every -parallel × -shards combination and requires byte-identical output:
// open-system arrivals are engine timers, so neither host pool width nor
// event-heap sharding may leak into virtual time.
func TestServeParallelShardsByteIdentical(t *testing.T) {
	render := func(parallel, shards string) string {
		var stdout bytes.Buffer
		args := append(serveGoldenArgs("itoa"), "-json", "-", "-quiet",
			"-parallel", parallel, "-shards", shards)
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		return stdout.String()
	}
	base := render("1", "1")
	for _, alt := range [][2]string{{"8", "1"}, {"1", "4"}, {"8", "4"}} {
		if got := render(alt[0], alt[1]); got != base {
			t.Errorf("-parallel %s -shards %s serve output differs from -parallel 1 -shards 1:\n--- base ---\n%s--- got ---\n%s",
				alt[0], alt[1], base, got)
		}
	}
}

// TestCLIParallelByteIdentical drives the full CLI surface (tables to
// stdout, JSON dump) at -parallel 1 and -parallel 8 and requires
// byte-identical bytes — the end-to-end form of the sweep determinism
// guarantee.
func TestCLIParallelByteIdentical(t *testing.T) {
	render := func(parallel string) string {
		var stdout bytes.Buffer
		err := run([]string{"fig6", "-bench", "recpfor", "-workers", "18", "-n", "64",
			"-seed", "7", "-json", "-", "-quiet", "-parallel", parallel}, &stdout, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return stdout.String()
	}
	seq := render("1")
	par := render("8")
	if seq != par {
		t.Errorf("-parallel 8 output differs from -parallel 1:\n--- 1 ---\n%s--- 8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Fig. 6") || !strings.Contains(seq, "\"name\": \"fig6_recpfor_itoa\"") {
		t.Errorf("output missing table or JSON section:\n%s", seq)
	}
}

// TestEngineStatsLine pins the -engine-stats diagnostic: every job prints
// its resumptions split into in-place, inline (a continuation ran in the
// goroutine's stead) and goroutine switches, the split adds up, an idle
// cycle that runs on the engine shows as inline, a job with nothing to divide by prints 0, never NaN or +Inf, and the
// shards line states the count the engine ran with, not the one asked for:
// 18 workers are one ITO-A node, so -shards 2 runs — and reports — one shard
// with nothing to cross; 72 workers are two, and do cross.
func TestEngineStatsLine(t *testing.T) {
	for _, tc := range []struct {
		workers string
		shards  int
		crosses bool
	}{{"18", 1, false}, {"72", 2, true}} {
		var stderr bytes.Buffer
		if err := run([]string{"fig6", "-bench", "pfor", "-workers", tc.workers, "-n", "64", "-shards", "2", "-engine-stats", "-quiet"}, io.Discard, &stderr); err != nil {
			t.Fatal(err)
		}
		jobs, shardLines := 0, 0
		for _, line := range strings.Split(stderr.String(), "\n") {
			var handoffs, inplace, inline, switches, cross uint64
			var shards int
			if i := strings.Index(line, "handoffs="); i >= 0 {
				if _, err := fmt.Sscanf(line[i:], "handoffs=%d inplace=%d inline=%d switches=%d", &handoffs, &inplace, &inline, &switches); err != nil {
					t.Fatalf("unparsable engine line %q: %v", line, err)
				}
				jobs++
				if handoffs == 0 || inline == 0 || inplace+inline+switches != handoffs {
					t.Errorf("inplace %d + inline %d + switches %d != handoffs %d, or no inline wake-up, in %q", inplace, inline, switches, handoffs, line)
				}
			} else if i := strings.Index(line, "shards="); i >= 0 {
				if _, err := fmt.Sscanf(line[i:], "shards=%d cross-shard=%d", &shards, &cross); err != nil {
					t.Fatalf("unparsable shards line %q: %v", line, err)
				}
				shardLines++
				if shards != tc.shards || (cross > 0) != tc.crosses {
					t.Errorf("-workers %s -shards 2: want shards=%d, cross-shard > 0 is %v, got %q", tc.workers, tc.shards, tc.crosses, line)
				}
			}
		}
		if jobs == 0 || shardLines != jobs || strings.Contains(stderr.String(), "NaN") || strings.Contains(stderr.String(), "Inf") {
			t.Errorf("want one finite engine line and one shards line per job, got:\n%s", stderr.String())
		}
	}
	if perUnit(0, 0) != 0 || perUnit(5, 0) != 0 || perUnit(6, 3) != 2 {
		t.Errorf("perUnit(0,0)=%v perUnit(5,0)=%v perUnit(6,3)=%v, want 0, 0, 2", perUnit(0, 0), perUnit(5, 0), perUnit(6, 3))
	}
}

// TestUsageErrors pins the bad-input contract: an unknown subcommand (the
// usage line; the retired enginebench is one), a malformed list, an out-of-range count, depth, scale or load and a pool or
// shard width below 1 all fail before any simulation runs, naming the
// offending field (or flag) and value; a job that cannot run at the given
// capacity (deque too small, load no run can complete) fails as one line
// naming the job and the cause, never as a panic out of run.
func TestUsageErrors(t *testing.T) {
	for _, argv := range [][]string{nil, {"nosuch"}, {"fig9", "-workers-list", "1,x"}, {"serve", "-loads", "0.5,"}} {
		if err := run(argv, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) did not fail", argv)
		}
	}
	if err := run([]string{"enginebench"}, io.Discard, io.Discard); err == nil || !strings.HasPrefix(err.Error(), "usage: repro {") {
		t.Errorf("run(enginebench) = %v, want the usage line", err)
	}
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"fig9", "-workers-list", "0"}, "workers_list must be positive, got 0"},
		{[]string{"fig12", "-workers-list", "18,-2"}, "workers_list must be positive, got -2"},
		{[]string{"fig6", "-workers", "-3"}, "workers must be positive, got -3"},
		{[]string{"table3", "-n", "-1024"}, "n must be positive, got -1024"},
		{[]string{"all", "-workers", "-3"}, "workers must be positive, got -3"},
		{[]string{"fig9", "-tree", "T1WL", "-workers-list", "12", "-seqdepth", "-1"}, "seqdepth must be non-negative, got -1"},
		{[]string{"fig8", "-workscale", "-2"}, "workscale must be non-negative, got -2"},
		{[]string{"fig6", "-dequecap", "-1"}, "dequecap must be non-negative, got -1"},
		{[]string{"serve", "-loads", "0.5,0"}, "loads must be positive, got 0"},
		{[]string{"serve", "-loads", "-1"}, "loads must be positive, got -1"},
		{[]string{"serve", "-requests", "0"}, `invalid value "0" for flag -requests: must be at least 1`},
		{[]string{"fig6", "-parallel", "-2"}, `invalid value "-2" for flag -parallel: must be at least 1`},
		{[]string{"run", "-parallel", "0"}, `invalid value "0" for flag -parallel: must be at least 1`},
		{[]string{"run", "-shards", "0"}, `invalid value "0" for flag -shards: must be at least 1`},
		{[]string{"fig6", "-scale", "-1"}, "scale must be in [0, 16], got -1"},
		{[]string{"fig6", "-scale", "70"}, "scale must be in [0, 16], got 70"},
		{[]string{"fig6", "-dequecap", "1", "-workers", "4", "-n", "64", "-parallel", "2"}, "queue overflow (cap 1)"},
		{[]string{"fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "6", "-dequecap", "1", "-parallel", "2"}, "job [fig9 tree=T1L system=ours workers=4"},
		{[]string{"serve", "-loads", "1e-9", "-requests", "8", "-workers", "4", "-parallel", "2"}, "serve did not complete by"},
	} {
		var stdout bytes.Buffer
		err := run(append(tc.argv, "-quiet"), &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v) = %v, want a one-line error containing %q", tc.argv, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed results before rejecting its input:\n%s", tc.argv, stdout.String())
		}
	}
}

// TestSinksFailBeforeTheSimulation: a sink that cannot be created is reported
// before the first entry runs — no progress line, no table — with the one-line
// error the write would have given after it; a creatable one is left absent
// (or as it was) until the run writes it.
func TestSinksFailBeforeTheSimulation(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "x")
	for _, tc := range []struct{ flag, path, want string }{
		{"-trace", missing, "-trace: open " + missing},
		{"-metrics", missing, "-metrics: open " + missing},
		{"-json", missing, "json: open " + missing},
		{"-tsv", filepath.Join(os.DevNull, "x"), "tsv: mkdir " + os.DevNull},
	} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"fig6", "-bench", "pfor", "-workers", "4", "-n", "64", tc.flag, tc.path}, &stdout, &stderr)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: run = %v, want a one-line error starting %q", tc.flag, err, tc.want)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("%s: output before the sink was rejected:\n%s%s", tc.flag, stdout.String(), stderr.String())
		}
	}
	kept, fresh := filepath.Join(dir, "kept.json"), filepath.Join(dir, "fresh.json")
	if err := os.WriteFile(kept, []byte("before"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{kept, fresh} {
		if err := manifest.Creatable(path); err != nil {
			t.Errorf("Creatable(%s) = %v", path, err)
		}
	}
	if b, err := os.ReadFile(kept); err != nil || string(b) != "before" {
		t.Errorf("Creatable touched an existing file: %q, %v", b, err)
	}
	if _, err := os.Stat(fresh); err == nil {
		t.Error("Creatable left its probe file behind")
	}
}
