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
// observing a run: a traced run ran all 18 cells and
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

	for _, par := range widths {
		dir, _ := runFolder(t, "fig6", "-bench", "pfor", "-workers", "18", "-n", "128", "-seed", "7",
			"-steal-policy", "uniform", "-parallel", par)
		matchGolden(t, filepath.Join(dir, "tsv", "fig6", "fig6_pfor_itoa.tsv"), "fig6_pfor_itoa.tsv", false)
	}

	var baseMetrics []byte
	for _, par := range widths {
		dir, _ := runFolder(t, "fig9", "-tree", "T1L", "-workers-list", "4", "-seqdepth", "10", "-seed", "7",
			"-steal-policy", "uniform", "-trace", "json", "-parallel", par)
		matchGolden(t, filepath.Join(dir, "trace", "fig9.json"), "trace_uts_micro.json", false)
		m, err := os.ReadFile(filepath.Join(dir, "metrics", "fig9.tsv"))
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
