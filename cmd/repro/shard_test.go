package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderShards runs one repro invocation with full observability enabled
// (TSV, JSON dump, trace, metrics) at the given shard count and returns
// every output: stdout+JSON, each TSV series, the trace JSON, the metrics
// TSV. The trace is also pushed through `repro analyze`, which re-verifies
// monotonicity and delay attribution.
func renderShards(t *testing.T, argv []string, shards string, tsvNames []string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.tsv")
	var stdout bytes.Buffer
	args := append(append([]string{}, argv...),
		"-shards", shards, "-trace", tracePath, "-metrics", metricsPath,
		"-json", "-", "-tsv", dir, "-quiet", "-parallel", "2")
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	// stdout echoes the scratch directory in "written to" lines; strip the
	// run-specific path so the comparison sees only simulation output.
	out := map[string][]byte{"stdout": bytes.ReplaceAll(stdout.Bytes(), []byte(dir), []byte("<dir>"))}
	for _, name := range append([]string{"trace.json", "metrics.tsv"}, tsvNames...) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("-shards %s did not produce %s: %v", shards, name, err)
		}
		out[name] = b
	}
	if err := run([]string{"analyze", tracePath}, io.Discard, io.Discard); err != nil {
		t.Errorf("-shards %s: analyze on produced trace: %v", shards, err)
	}
	return out
}

// diffShards runs the same invocation at -shards 1 and -shards 4 and
// requires every output byte — tables, JSON, TSV series, the complete event
// trace, the metrics registry — to be identical.
func diffShards(t *testing.T, argv []string, tsvNames []string) {
	t.Helper()
	want := renderShards(t, argv, "1", tsvNames)
	got := renderShards(t, argv, "4", tsvNames)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("-shards 4 missing output %s", name)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs between -shards 1 and -shards 4:\n--- shards 1 ---\n%s--- shards 4 ---\n%s", name, w, g)
		}
	}
}

// TestShardsDifferentialFig6 is the fig6 micro grid (all five scheduler
// variants) on both machine models: -shards 4 must be byte-identical to
// -shards 1 on every output channel, tracing and metrics on.
func TestShardsDifferentialFig6(t *testing.T) {
	for _, machine := range []string{"itoa", "wisteria"} {
		diffShards(t,
			[]string{"fig6", "-bench", "pfor", "-machine", machine, "-workers", "144", "-n", "128", "-seed", "7"},
			[]string{"fig6_pfor_" + machine + ".tsv"})
	}
}

// TestShardsDifferentialFig9 is the UTS micro grid under the wisteria
// machine (the fig9 configuration): continuation stealing, stack migration,
// remote frees and the steal protocol all cross nodes here.
func TestShardsDifferentialFig9(t *testing.T) {
	diffShards(t,
		[]string{"fig9", "-tree", "T1L", "-workers-list", "96", "-seqdepth", "10", "-seed", "7"},
		[]string{"uts_T1L'_wisteria.tsv"})
}

// The TestGoldenShards* tests require the sharded engine to reproduce the
// committed single-heap fixtures byte-for-byte, with no -update. They assert
// over the shared smoke run folder made at -shards 4 (core clamps shards to
// the simulated node count, so on the one- and two-node golden slices
// -shards 4 selects exactly the engine -shards 2 does).
func TestGoldenShardsFig9(t *testing.T) {
	checkSmokeGolden(t, smokeSharded, "fig9", "uts_T1WL'_wisteria.tsv")
}

func TestGoldenShardsFig6(t *testing.T) {
	checkSmokeGolden(t, smokeSharded, "fig6_pfor", "fig6_pfor_itoa.tsv")
}

func TestGoldenShardsFig8(t *testing.T) {
	checkSmokeGolden(t, smokeSharded, "fig8", "uts_T1L'_itoa.tsv")
}

// TestGoldenShardsResilience is the fault-injection golden slice under a
// sharded engine: perturbation RNG draws, drops and retransmissions must be
// untouched by event-heap organization.
func TestGoldenShardsResilience(t *testing.T) {
	checkSmokeGolden(t, smokeSharded, "resilience", "resilience_T1L'_itoa.tsv")
}

// TestShardsDifferentialPerturbed runs the fig9 micro grid at -shards 4
// under a -perturb overlay combining latency jitter with message drops —
// the regression for jittered delays vs. the advertised lookahead lower
// bound. Jitter stretches every cross-node op by up to 90% (OpDelay clamps
// it to at least the base latency, so the per-shard-pair windows stay
// sound), and drops force the msg layer's retransmit timers to re-file
// deliveries across shard boundaries. Every output byte must match the
// -shards 1 run, trace and metrics on.
func TestShardsDifferentialPerturbed(t *testing.T) {
	diffShards(t,
		[]string{"fig9", "-tree", "T1L", "-workers-list", "96", "-seqdepth", "10", "-seed", "7",
			"-perturb", "jitter=0.9,drop=0.05,seed=3"},
		[]string{"uts_T1L'_wisteria.tsv"})
}

// TestGoldenShardsTraceJSON reruns the complete micro event-log fixture
// under -shards 4: the full trace — every span of every layer in dispatch
// order — is the strictest byte-identity gate the repo has.
func TestGoldenShardsTraceJSON(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace_uts_micro.json")
	args := []string{"fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
		"-shards", "4", "-trace", tracePath, "-quiet", "-parallel", "4"}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_uts_micro.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-shards 4 trace diverges from the committed single-heap fixture (%d vs %d bytes)", len(got), len(want))
	}
}

func TestShardsFlagValidation(t *testing.T) {
	err := run([]string{"fig6", "-bench", "pfor", "-workers", "18", "-n", "64", "-shards", "0", "-quiet"},
		io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("run with -shards 0 returned %v, want a -shards validation error", err)
	}
}
