package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stealZooGoldenArgs is the pinned steal-policy-zoo slice — identical to the
// smoke manifest entry: all six policies × three perturbation scenarios on
// the seeded wavefront DAG, 72 workers (two ITO-A nodes, so the hier and
// locality policies actually differ from uniform). The checksum column
// doubles as the oracle: StealZoo panics if any row diverges from the
// single-threaded topological checksum.
func stealZooGoldenArgs() []string {
	return []string{"stealzoo", "-machine", "itoa", "-workers", "72", "-n", "10", "-seed", "7"}
}

// TestGoldenStealZooTSV asserts the smoke manifest's stealzoo entry (the
// same slice as stealZooGoldenArgs) reproduced the committed fixture.
func TestGoldenStealZooTSV(t *testing.T) {
	checkSmokeGolden(t, smokeBase, "stealzoo", "stealzoo_itoa.tsv")
}

// TestStealZooParallelByteIdentical requires the zoo's rows, series and
// metrics registry to be byte-identical at every host-parallelism width the
// shared smoke runs cover: six steal policies and three perturbation
// scenarios may not leak host scheduling into virtual time.
func TestStealZooParallelByteIdentical(t *testing.T) {
	base := entryFiles(t, smokeDir(t, smokeBase), "stealzoo")
	diffSnapshots(t, "stealzoo -parallel 8 vs 1", base, entryFiles(t, smokeDir(t, smokeSeq), "stealzoo"))
}

// TestStealZooTraceOn is the regression test for the stealzoo grid never
// claiming the observability collector: -trace/-metrics ran all 18 cells and
// then failed with "no fork-join runtime job ran". The first grid point
// (uniform policy, unperturbed) is the one traced.
func TestStealZooTraceOn(t *testing.T) {
	traceOnGolden(t, stealZooGoldenArgs(), "stealzoo_itoa.tsv")
}

// TestStealPolicyDifferential is the policy-equivalence harness: an explicit
// `-steal-policy uniform` must be indistinguishable from the flag's absence
// — the zero-value StealPolicy IS the paper's uniform steal-one, not merely
// equivalent to it. The fig6 golden slice must reproduce its committed TSV
// fixture and the micro fig9 run its committed event-log fixture (every span
// of every layer, in engine-dispatch order) byte-for-byte, at -parallel 1
// and 8, with the metrics registry also identical across the two. No
// -update: the committed bytes are the reference.
func TestStealPolicyDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig6 and fig9 slices at two -parallel widths")
	}
	widths := []string{"1", "8"}

	wantFig6, err := os.ReadFile(filepath.Join("testdata", "fig6_pfor_itoa.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range widths {
		dir := t.TempDir()
		args := []string{"fig6", "-bench", "pfor", "-workers", "18", "-n", "128", "-seed", "7",
			"-steal-policy", "uniform", "-tsv", dir, "-quiet", "-parallel", par}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "fig6_pfor_itoa.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFig6) {
			t.Errorf("fig6 -steal-policy uniform -parallel %s diverges from the committed fixture", par)
		}
	}

	wantTrace, err := os.ReadFile(filepath.Join("testdata", "trace_uts_micro.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseMetrics []byte
	for _, par := range widths {
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "trace.json")
		metricsPath := filepath.Join(dir, "metrics.tsv")
		args := []string{"fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
			"-steal-policy", "uniform", "-trace", tracePath, "-metrics", metricsPath,
			"-quiet", "-parallel", par}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
		}
		got, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantTrace) {
			t.Errorf("fig9 -steal-policy uniform -parallel %s event log diverges from the committed fixture (%d vs %d bytes)",
				par, len(got), len(wantTrace))
		}
		m, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			t.Fatalf("-parallel %s produced an empty metrics registry", par)
		}
		if baseMetrics == nil {
			baseMetrics = m
		} else if !bytes.Equal(m, baseMetrics) {
			t.Errorf("fig9 metrics registry at -parallel %s differs from -parallel %s", par, widths[0])
		}
	}
}

// TestStealPolicyFlagRejectsUnknown pins the CLI-level validation path: a
// typoed policy must fail loudly before any simulation runs.
func TestStealPolicyFlagRejectsUnknown(t *testing.T) {
	err := run([]string{"fig6", "-steal-policy", "round-robin", "-quiet"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "steal policy") {
		t.Errorf("unknown -steal-policy not rejected: %v", err)
	}
	err = run([]string{"stealzoo", "-shape", "butterfly", "-quiet"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("unknown -shape not rejected: %v", err)
	}
}
