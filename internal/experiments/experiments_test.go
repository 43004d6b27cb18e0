package experiments

import (
	"testing"
)

// The experiment functions are exercised at miniature scale so the full
// suite stays fast; cmd/repro runs them at their real defaults.

func tinyOpts() Options {
	return Options{Machine: "itoa", Workers: 18, Seed: 7}
}

func TestFig6Rows(t *testing.T) {
	rows := Fig6(tinyOpts(), "pfor", []int{128})
	if len(rows) != len(Variants()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Variants()))
	}
	for _, r := range rows {
		if r.Efficiency <= 0 || r.Efficiency > 1.05 {
			t.Errorf("%s: efficiency %.3f out of range", r.Variant, r.Efficiency)
		}
		if r.ExecTime <= 0 {
			t.Errorf("%s: no exec time", r.Variant)
		}
	}
}

func TestFig6RecPForOrdering(t *testing.T) {
	// The headline claim: continuation stealing beats child stealing on
	// RecPFor, and child-RtC is the worst.
	rows := Fig6(tinyOpts(), "recpfor", []int{256})
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	if byName["greedy"].ExecTime > byName["child-full"].ExecTime {
		t.Errorf("greedy (%v) slower than child-full (%v) on RecPFor",
			byName["greedy"].ExecTime, byName["child-full"].ExecTime)
	}
	if byName["child-full"].ExecTime > byName["child-rtc"].ExecTime {
		t.Errorf("child-full (%v) slower than child-rtc (%v)",
			byName["child-full"].ExecTime, byName["child-rtc"].ExecTime)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(tinyOpts(), "recpfor", 256)
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	g, cf := byName["cont-greedy"], byName["child-full"]
	// Child stealing yields far more outstanding joins (§V-B).
	if g.OutstandingJoins*4 > cf.OutstandingJoins {
		t.Errorf("outstanding joins: greedy %d vs child-full %d — expected an order-of-magnitude gap",
			g.OutstandingJoins, cf.OutstandingJoins)
	}
	// Continuation stealing moves ~2 orders of magnitude more bytes.
	if g.AvgStolenBytes < 20*cf.AvgStolenBytes {
		t.Errorf("stolen sizes: greedy %.0fB vs child %.0fB", g.AvgStolenBytes, cf.AvgStolenBytes)
	}
	// Greedy's outstanding joins resume quickly; stalling's slowly.
	s := byName["cont-stalling"]
	if g.AvgOutstandingTime >= s.AvgOutstandingTime {
		t.Errorf("OJ time: greedy %v should be below stalling %v",
			g.AvgOutstandingTime, s.AvgOutstandingTime)
	}
}

// TestFig7Series holds the paper's Fig. 7 claim at the smoke entry's params:
// under continuation stealing with greedy join the ready-outstanding-join
// line stays near 0, while under child-Full tens to hundreds of runnable
// joins wait. The means are the ones the layout's summary reports.
func TestFig7Series(t *testing.T) {
	o := tinyOpts()
	rows := Fig7(o, 512)
	samples := map[string]int{}
	for _, r := range rows {
		samples[r.Variant]++
		if r.Busy < 0 || r.Busy > o.Workers {
			t.Errorf("%s at %v: busy %d outside [0, %d]", r.Variant, r.T, r.Busy, o.Workers)
		}
	}
	for _, v := range []string{"greedy", "child-full"} {
		if samples[v] < 5 {
			t.Errorf("%s: %d samples, want at least 5", v, samples[v])
		}
	}
	sum := Fig7Layout.Of(rows).Summary()
	if g := sum["mean_ready_oj_greedy"]; g >= 1 {
		t.Errorf("greedy mean ready outstanding joins %.2f, want < 1", g)
	}
	if c := sum["mean_ready_oj_child-full"]; c < 10 {
		t.Errorf("child-full mean ready outstanding joins %.2f, want >= 10", c)
	}
}

func TestUTSOnceAllSystems(t *testing.T) {
	o := tinyOpts()
	var throughputs []float64
	for _, system := range []string{"ours", "saws", "charm", "glb"} {
		row := UTSOnce(o, system, "T1L", 18, 6)
		if row.Nodes == 0 || row.ExecTime <= 0 {
			t.Errorf("%s: empty row", system)
		}
		throughputs = append(throughputs, row.Throughput)
	}
	_ = throughputs
}

func TestFig9DefaultsToWisteria(t *testing.T) {
	rows := Fig9(Options{Seed: 7}, "T1L", []int{48}, 8)
	if len(rows) != 1 || rows[0].Machine != "wisteria" {
		t.Fatalf("unexpected rows %+v", rows)
	}
}

func TestTable3Ordering(t *testing.T) {
	rows := Table3(tinyOpts(), []int{1 << 12})
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// Greedy join must beat stalling, which must beat child stealing.
	if byName["cont-greedy"].ExecTime > byName["cont-stalling"].ExecTime {
		t.Errorf("LCS: greedy (%v) slower than stalling (%v)",
			byName["cont-greedy"].ExecTime, byName["cont-stalling"].ExecTime)
	}
	if byName["cont-stalling"].ExecTime > byName["child-full"].ExecTime {
		t.Errorf("LCS: stalling (%v) slower than child-full (%v)",
			byName["cont-stalling"].ExecTime, byName["child-full"].ExecTime)
	}
}

func TestFig12WithinBands(t *testing.T) {
	rows := Fig12(tinyOpts(), []int{1 << 12}, []int{4, 9, 18})
	inBand := 0
	for _, r := range rows {
		if r.InBand {
			inBand++
		}
		if r.LowerBound > r.UpperBound {
			t.Errorf("bounds inverted: %+v", r)
		}
	}
	if inBand < len(rows)-1 {
		t.Errorf("only %d/%d points within the greedy-scheduling band", inBand, len(rows))
	}
}

func TestMachineByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown machine did not panic")
		}
	}()
	MachineByName("nonexistent")
}

func TestTreeByName(t *testing.T) {
	for _, n := range []string{"T1L", "T1XXL", "T1WL", "T1L'"} {
		if TreeByName(n).Name == "" {
			t.Errorf("tree %q unresolved", n)
		}
	}
}
