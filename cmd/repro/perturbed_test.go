package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// renderParallel runs one experiment subcommand with -trace json on a pool
// of the given width and returns every output: stdout (the folder path
// aside) and each file of the run folder — tables, TSV series, JSON rows,
// the trace, the metrics registry, the summary. The trace is also pushed
// through `repro analyze`, which re-verifies monotonicity and delay
// attribution.
func renderParallel(t *testing.T, argv []string, parallel string) map[string]string {
	t.Helper()
	dir, stdout := runFolder(t, append(append([]string{}, argv...), "-trace", "json", "-parallel", parallel)...)
	out := snapshotRun(t, dir)
	out["stdout"] = strings.ReplaceAll(stdout, dir, "<dir>")
	if err := run([]string{"analyze", filepath.Join(dir, "trace", argv[0]+".json")}, io.Discard, io.Discard); err != nil {
		t.Errorf("-parallel %s: analyze on produced trace: %v", parallel, err)
	}
	return out
}

// TestParallelDifferentialPerturbed runs the fig9 micro grid under a
// -perturb overlay combining latency jitter with message drops, at
// -parallel 1 and 2. Jitter stretches every cross-node op by up to 90 %, and
// drops send the msg layer's deliveries through its retransmit timers. Every
// output byte — tables, JSON, TSV series, the complete event trace, the
// metrics registry — must match across the two widths, and `repro analyze`
// must accept the jittered, dropping trace.
func TestParallelDifferentialPerturbed(t *testing.T) {
	argv := []string{"fig9", "-tree", "T1L", "-workers-list", "96", "-seqdepth", "10", "-seed", "7",
		"-perturb", "jitter=0.9,drop=0.05,seed=3"}
	want := renderParallel(t, argv, "1")
	if want[filepath.Join("tsv", "fig9", "uts_T1L'_wisteria.tsv")] == "" || want[filepath.Join("trace", "fig9.json")] == "" {
		t.Fatalf("the run folder lacks the series or the trace: %d files", len(want))
	}
	diffSnapshots(t, "-parallel 1 vs 2", want, renderParallel(t, argv, "2"))
}
