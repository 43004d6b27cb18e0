package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderParallel runs one repro invocation with full observability enabled
// (TSV, JSON dump, trace, metrics) on a pool of the given width and returns
// every output: stdout+JSON, each TSV series, the trace JSON, the metrics
// TSV. The trace is also pushed through `repro analyze`, which re-verifies
// monotonicity and delay attribution.
func renderParallel(t *testing.T, argv []string, parallel string, tsvNames []string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.tsv")
	var stdout bytes.Buffer
	args := append(append([]string{}, argv...),
		"-trace", tracePath, "-metrics", metricsPath,
		"-json", "-", "-tsv", dir, "-quiet", "-parallel", parallel)
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	// stdout echoes the scratch directory in "written to" lines; strip the
	// run-specific path so the comparison sees only simulation output.
	out := map[string][]byte{"stdout": bytes.ReplaceAll(stdout.Bytes(), []byte(dir), []byte("<dir>"))}
	for _, name := range append([]string{"trace.json", "metrics.tsv"}, tsvNames...) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("-parallel %s did not produce %s: %v", parallel, name, err)
		}
		out[name] = b
	}
	if err := run([]string{"analyze", tracePath}, io.Discard, io.Discard); err != nil {
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
	tsvNames := []string{"uts_T1L'_wisteria.tsv"}
	want := renderParallel(t, argv, "1", tsvNames)
	got := renderParallel(t, argv, "2", tsvNames)
	for name, w := range want {
		if g := got[name]; !bytes.Equal(g, w) {
			t.Errorf("%s differs between -parallel 1 and -parallel 2:\n--- 1 ---\n%s--- 2 ---\n%s", name, w, g)
		}
	}
}
