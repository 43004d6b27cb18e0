package workload

import (
	"testing"

	"contsteal/internal/core"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

func cfg(policy core.Policy, workers int) core.Config {
	return core.Config{
		Machine:    topo.Uniform(500),
		Workers:    workers,
		Policy:     policy,
		RemoteFree: remobj.LocalCollection,
		Seed:       1,
		MaxTime:    60 * sim.Second,
	}
}

func TestPForSerialTimeMatchesT1(t *testing.T) {
	// On one worker with a zero-overhead machine, execution time is exactly
	// the total work K·M·N.
	p := PForParams{K: 3, M: 10 * sim.Microsecond, N: 64}
	rt := core.New(cfg(core.ContGreedy, 1))
	_, st := rt.Run(PFor(p))
	if st.ExecTime != p.T1PFor() {
		t.Errorf("serial PFor time = %v, want T1 = %v", st.ExecTime, p.T1PFor())
	}
}

func TestRecPForSerialTimeMatchesT1(t *testing.T) {
	p := PForParams{K: 2, M: 5 * sim.Microsecond, N: 32}
	rt := core.New(cfg(core.ContGreedy, 1))
	_, st := rt.Run(RecPFor(p))
	if st.ExecTime != p.T1RecPFor() {
		t.Errorf("serial RecPFor time = %v, want T1 = %v", st.ExecTime, p.T1RecPFor())
	}
}

func TestPForParallelSpeedup(t *testing.T) {
	p := PForParams{K: 2, M: 20 * sim.Microsecond, N: 256}
	serial := p.T1PFor()
	rt := core.New(cfg(core.ContGreedy, 8))
	_, st := rt.Run(PFor(p))
	if eff := st.Efficiency(serial); eff < 0.6 {
		t.Errorf("PFor efficiency on 8 workers = %.2f, want > 0.6", eff)
	}
}

func TestPForAllPoliciesComplete(t *testing.T) {
	p := PForParams{K: 2, M: 5 * sim.Microsecond, N: 64}
	for _, pol := range []core.Policy{core.ContGreedy, core.ContStalling, core.ChildFull, core.ChildRtC} {
		rt := core.New(cfg(pol, 4))
		_, st := rt.Run(PFor(p))
		if st.Work.Tasks == 0 {
			t.Errorf("%v: no tasks executed", pol)
		}
	}
}

func TestRecPForAllPoliciesComplete(t *testing.T) {
	p := PForParams{K: 2, M: 5 * sim.Microsecond, N: 32}
	for _, pol := range []core.Policy{core.ContGreedy, core.ContStalling, core.ChildFull, core.ChildRtC} {
		rt := core.New(cfg(pol, 4))
		_, st := rt.Run(RecPFor(p))
		if st.ExecTime <= 0 {
			t.Errorf("%v: no progress", pol)
		}
	}
}

func TestUTSTreeDeterministic(t *testing.T) {
	tree := T1LPrime()
	a, b := tree.CountSerial(), tree.CountSerial()
	if a != b {
		t.Fatalf("tree counts differ: %d vs %d", a, b)
	}
	if a < 1000 {
		t.Errorf("T1L' has only %d nodes; too small to be interesting", a)
	}
	t.Logf("T1L' = %d nodes", a)
}

func TestUTSTreeSizesOrdered(t *testing.T) {
	l := T1LPrime().CountSerial()
	xxl := T1XXLPrime().CountSerial()
	wl := T1WLPrime().CountSerial()
	if !(l < xxl && xxl < wl) {
		t.Errorf("tree sizes not ordered: T1L'=%d T1XXL'=%d T1WL'=%d", l, xxl, wl)
	}
	// The known answers: every descriptor of the three trees goes through
	// childDesc, so a hash that is wrong anywhere moves at least one of them.
	if l != 67_311 || xxl != 1_445_354 || wl != 5_409_181 {
		t.Errorf("tree sizes T1L'=%d T1XXL'=%d T1WL'=%d, want 67311, 1445354, 5409181", l, xxl, wl)
	}
}

func TestUTSChildCountGeometric(t *testing.T) {
	// The mean branching at the root level should be near b0.
	tree := T1LPrime()
	tree.GenMx = 100 // keep b(d) ≈ b0 at shallow depth
	sum, n := 0, 0
	node := tree.Root()
	for i := 0; i < 500; i++ {
		child := tree.Child(node, i%7)
		node = child
		if node.Depth > 3 {
			node.Depth = 1
		}
		sum += tree.NumChildren(node)
		n++
	}
	mean := float64(sum) / float64(n)
	if mean < 2.0 || mean > 8.0 {
		t.Errorf("mean branching = %.2f, want ~4 (b0)", mean)
	}
}

func TestUTSRuntimeCountMatchesSerial(t *testing.T) {
	tree := UTSTree{Name: "tiny", B0: 3, GenMx: 7, RootSeed: 5, MaxChildren: 50, NodeWork: 190}
	want := tree.CountSerial()
	for _, pol := range []core.Policy{core.ContGreedy, core.ContStalling, core.ChildFull, core.ChildRtC} {
		rt := core.New(cfg(pol, 4))
		ret, st := rt.Run(UTS(tree, 0))
		got := int64(uint64(ret[0]) | uint64(ret[1])<<8 | uint64(ret[2])<<16 | uint64(ret[3])<<24)
		if got != want {
			t.Errorf("%v: UTS count = %d, want %d", pol, got, want)
		}
		if pol == core.ContGreedy && st.Work.StealsOK == 0 {
			t.Error("no steals in UTS — tree should be unbalanced")
		}
	}
}

func TestUTSSeqThresholdPreservesCount(t *testing.T) {
	tree := UTSTree{Name: "tiny", B0: 3, GenMx: 8, RootSeed: 5, MaxChildren: 50, NodeWork: 190}
	want := tree.CountSerial()
	for _, thr := range []int{0, 2, 4} {
		rt := core.New(cfg(core.ContGreedy, 4))
		ret, _ := rt.Run(UTS(tree, thr))
		got := int64(uint64(ret[0]) | uint64(ret[1])<<8 | uint64(ret[2])<<16 | uint64(ret[3])<<24)
		if got != want {
			t.Errorf("threshold %d: count = %d, want %d", thr, got, want)
		}
	}
}

func TestUTSSerialTimeMatchesNodeWork(t *testing.T) {
	tree := UTSTree{Name: "tiny", B0: 3, GenMx: 6, RootSeed: 5, MaxChildren: 50, NodeWork: 200}
	nodes := tree.CountSerial()
	rt := core.New(cfg(core.ContGreedy, 1))
	_, st := rt.Run(UTS(tree, 0))
	if st.ExecTime != tree.SerialTime(nodes) {
		t.Errorf("serial UTS time = %v, want %v", st.ExecTime, tree.SerialTime(nodes))
	}
}

func lcsTestParams(n, c int, verify bool) LCSParams {
	return LCSParams{N: n, C: c, Seed: 11, Verify: verify, CellCost: 1, Alphabet: 4}
}

func lcsConfig(pol core.Policy, workers int, p LCSParams) core.Config {
	c := cfg(pol, workers)
	c.RetvalBytes = p.RetvalBytes()
	return c
}

func TestLCSVerifyMatchesSerialDP(t *testing.T) {
	p := lcsTestParams(256, 32, true)
	a, b := p.GenSequences()
	want := int64(SerialLCS(a, b))
	for _, pol := range []core.Policy{core.ContGreedy, core.ContStalling, core.ChildFull} {
		rt := core.New(lcsConfig(pol, 4, p))
		ret, _ := rt.Run(LCS(p))
		got := int64(uint64(ret[0]) | uint64(ret[1])<<8 | uint64(ret[2])<<16 | uint64(ret[3])<<24)
		if got != want {
			t.Errorf("%v: LCS length = %d, want %d", pol, got, want)
		}
	}
}

func TestLCSVerifySingleBlock(t *testing.T) {
	p := lcsTestParams(32, 32, true)
	a, b := p.GenSequences()
	want := int64(SerialLCS(a, b))
	rt := core.New(lcsConfig(core.ContGreedy, 2, p))
	ret, _ := rt.Run(LCS(p))
	if got := int64(ret[0]) | int64(ret[1])<<8; got != want {
		t.Errorf("single-block LCS = %d, want %d", got, want)
	}
}

func TestLCSVerifyPropertyRandomSeeds(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := LCSParams{N: 128, C: 16, Seed: seed, Verify: true, CellCost: 1, Alphabet: 3}
		a, b := p.GenSequences()
		want := int64(SerialLCS(a, b))
		rt := core.New(lcsConfig(core.ContGreedy, 3, p))
		ret, _ := rt.Run(LCS(p))
		got := int64(uint64(ret[0]) | uint64(ret[1])<<8 | uint64(ret[2])<<16)
		if got != want {
			t.Errorf("seed %d: LCS = %d, want %d", seed, got, want)
		}
	}
}

func TestLCSTimingModeRuns(t *testing.T) {
	p := lcsTestParams(512, 64, false)
	p.CellCost = 10
	rt := core.New(lcsConfig(core.ContGreedy, 8, p))
	_, st := rt.Run(LCS(p))
	// All (N/C)² leaves must have run: busy time ≥ T1.
	if st.Work.BusyTime < p.T1() {
		t.Errorf("busy time %v < T1 %v: not all blocks executed", st.Work.BusyTime, p.T1())
	}
	// Greedy-scheduling-theorem sanity (Fig. 12): T_P within
	// [max(T1/P, T∞)/slack, T1/P + T∞ + protocol overhead].
	lower := p.T1() / 8
	if p.TInf() > lower {
		lower = p.TInf()
	}
	if st.ExecTime < lower {
		t.Errorf("exec time %v below the theoretical lower bound %v", st.ExecTime, lower)
	}
}

func TestLCSWorkSpanFormulas(t *testing.T) {
	p := lcsTestParams(512, 64, false)
	if p.T1() != 64*p.Tc() {
		t.Errorf("T1 = %v, want 64·Tc", p.T1())
	}
	if p.TInf() != 15*p.Tc() {
		t.Errorf("TInf = %v, want 15·Tc", p.TInf())
	}
}

func TestLCSBadParamsPanic(t *testing.T) {
	for _, p := range []LCSParams{
		{N: 100, C: 32}, // not a multiple
		{N: 96, C: 32},  // N/C=3 not a power of two
		{N: 16, C: 4},   // C too small
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %+v did not panic", p)
				}
			}()
			LCS(p)
		}()
	}
}

func TestSerialLCSKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"ABCBDAB", "BDCABA", 4}, // classic textbook example
		{"", "ABC", 0},
		{"ABC", "ABC", 3},
		{"ABC", "DEF", 0},
		{"AGGTAB", "GXTXAYB", 4},
	}
	for _, c := range cases {
		if got := SerialLCS([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("SerialLCS(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
