package bot

import (
	"testing"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// utsExpand adapts a workload UTS tree to the BoT Expand interface.
func utsExpand(tree workload.UTSTree) (Task, Expand, int64) {
	rootNode := tree.Root()
	var root Task
	copy(root.Desc[:], rootNode.Desc[:])
	root.Depth = 0
	expand := func(t Task) []Task {
		n := workload.UTSNode{Depth: int(t.Depth)}
		copy(n.Desc[:], t.Desc[:])
		nc := tree.NumChildren(n)
		out := make([]Task, nc)
		for i := 0; i < nc; i++ {
			ch := tree.Child(n, i)
			copy(out[i].Desc[:], ch.Desc[:])
			out[i].Depth = int32(ch.Depth)
		}
		return out
	}
	return root, expand, tree.CountSerial()
}

func tinyTree() workload.UTSTree {
	return workload.UTSTree{Name: "tiny", B0: 3, GenMx: 9, RootSeed: 5, MaxChildren: 50, NodeWork: 190}
}

func testCfg(workers int) Config {
	return Config{
		Machine: topo.Uniform(2 * sim.Microsecond),
		Workers: workers,
		Seed:    3,
		Work:    190,
		MaxTime: 120 * sim.Second,
	}
}

type runner struct {
	name string
	run  func(Config, Task, Expand) Stats
}

var runners = []runner{
	{"saws", RunSAWS},
	{"charm", RunCharm},
	{"glb", RunGLB},
}

func TestAllRuntimesCountCorrectly(t *testing.T) {
	root, expand, want := utsExpand(tinyTree())
	for _, r := range runners {
		for _, workers := range []int{1, 2, 8} {
			st := r.run(testCfg(workers), root, expand)
			if st.Tasks != want {
				t.Errorf("%s/%dw: processed %d tasks, want %d", r.name, workers, st.Tasks, want)
			}
			if st.Exec <= 0 {
				t.Errorf("%s/%dw: non-positive exec time", r.name, workers)
			}
		}
	}
}

func TestAllRuntimesSteal(t *testing.T) {
	root, expand, _ := utsExpand(tinyTree())
	for _, r := range runners {
		st := r.run(testCfg(8), root, expand)
		if st.StealsOK == 0 {
			t.Errorf("%s: no successful steals on 8 workers", r.name)
		}
		if st.StolenTsks < st.StealsOK {
			t.Errorf("%s: stolen tasks (%d) < steals (%d)", r.name, st.StolenTsks, st.StealsOK)
		}
	}
}

func TestStealHalfMovesBatches(t *testing.T) {
	// Steal-half should move multiple tasks per steal on average.
	root, expand, _ := utsExpand(tinyTree())
	st := RunSAWS(testCfg(4), root, expand)
	if avg := float64(st.StolenTsks) / float64(st.StealsOK); avg < 1.5 {
		t.Errorf("SAWS average steal batch = %.2f tasks, want > 1.5 (steal-half)", avg)
	}
}

func TestDeterminism(t *testing.T) {
	root, expand, _ := utsExpand(tinyTree())
	for _, r := range runners {
		a := r.run(testCfg(4), root, expand)
		b := r.run(testCfg(4), root, expand)
		if a.Exec != b.Exec || a.StealsOK != b.StealsOK {
			t.Errorf("%s: nondeterministic: exec %v/%v steals %d/%d",
				r.name, a.Exec, b.Exec, a.StealsOK, b.StealsOK)
		}
	}
}

func TestParallelSpeedup(t *testing.T) {
	// Needs a tree big enough that per-steal overheads amortize.
	root, expand, nodes := utsExpand(workload.T1LPrime())
	for _, r := range runners {
		t1 := r.run(testCfg(1), root, expand)
		t8 := r.run(testCfg(8), root, expand)
		speedup := float64(t1.Exec) / float64(t8.Exec)
		if speedup < 2.0 {
			t.Errorf("%s: speedup on 8 workers = %.2fx (1w: %v, 8w: %v, %d nodes)",
				r.name, speedup, t1.Exec, t8.Exec, nodes)
		}
	}
}

func TestTwoSidedUsesMessages(t *testing.T) {
	root, expand, _ := utsExpand(tinyTree())
	if st := RunCharm(testCfg(4), root, expand); st.Msgs == 0 {
		t.Error("Charm-like handled no messages")
	}
	if st := RunGLB(testCfg(4), root, expand); st.Msgs == 0 {
		t.Error("GLB-like handled no messages")
	}
	if st := RunSAWS(testCfg(4), root, expand); st.Msgs != 0 {
		t.Error("SAWS-like should be purely one-sided")
	}
}

func TestLifelineGraph(t *testing.T) {
	cases := []struct {
		rank, workers int
		want          []int
	}{
		{0, 8, []int{1, 2, 4}},
		{3, 8, []int{2, 1, 7}},
		{5, 6, []int{4, 1}}, // 5^2=7 >= 6 pruned
		{0, 1, nil},
	}
	for _, c := range cases {
		got := lifelineOut(c.rank, c.workers)
		if len(got) != len(c.want) {
			t.Errorf("lifelineOut(%d,%d) = %v, want %v", c.rank, c.workers, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("lifelineOut(%d,%d) = %v, want %v", c.rank, c.workers, got, c.want)
				break
			}
		}
	}
}

func TestPackedWord(t *testing.T) {
	for _, c := range []struct{ h, t uint32 }{{0, 0}, {5, 17}, {1 << 30, 1<<30 + 999}} {
		h, tl := unpackHT(packHT(c.h, c.t))
		if h != c.h || tl != c.t {
			t.Errorf("pack/unpack(%d,%d) = (%d,%d)", c.h, c.t, h, tl)
		}
	}
}

func TestTaskCodecRoundTrip(t *testing.T) {
	ts := []Task{{Depth: 3}, {Depth: 9}}
	for i := range ts {
		for j := range ts[i].Desc {
			ts[i].Desc[j] = byte(i*31 + j)
		}
	}
	got := decodeTasks(encodeTasks(ts))
	if len(got) != 2 || got[0] != ts[0] || got[1] != ts[1] {
		t.Errorf("task codec round trip failed: %v vs %v", got, ts)
	}
}

func TestTerminationDelayBounded(t *testing.T) {
	root, expand, _ := utsExpand(tinyTree())
	for _, r := range runners {
		st := r.run(testCfg(8), root, expand)
		if st.TermDelay < 0 {
			t.Errorf("%s: negative termination delay", r.name)
		}
		if st.TermDelay > st.Exec {
			t.Errorf("%s: termination delay %v exceeds exec time %v", r.name, st.TermDelay, st.Exec)
		}
	}
}

func TestSingleWorkerNoSteals(t *testing.T) {
	root, expand, want := utsExpand(tinyTree())
	for _, r := range runners {
		st := r.run(testCfg(1), root, expand)
		if st.StealsOK != 0 {
			t.Errorf("%s: steals with one worker", r.name)
		}
		if st.Tasks != want {
			t.Errorf("%s: wrong count %d on one worker", r.name, st.Tasks)
		}
	}
}

// TestSharedMachineRunsAreIndependent: every baseline draws its jitter and
// drop streams from its own copy of the Machine, so the second run on one
// perturbed Machine equals a run on a fresh one.
func TestSharedMachineRunsAreIndependent(t *testing.T) {
	root, expand, _ := utsExpand(tinyTree())
	perturbed := func() *topo.Machine {
		m := topo.ITOA()
		m.Perturb = &topo.Perturb{Seed: 3, LatencyJitter: 0.5, DropProb: 0.1}
		return m
	}
	for _, system := range []string{"saws", "charm", "glb"} {
		cfg := Config{Workers: 8, Seed: 3, Work: 190, MaxTime: 120 * sim.Second}
		cfg.Machine = perturbed()
		want := Run(system, cfg, root, expand)
		cfg.Machine = perturbed()
		for i := 1; i <= 2; i++ {
			if got := Run(system, cfg, root, expand); got != want {
				t.Errorf("%s run %d on a shared Machine: %+v, fresh Machine: %+v", system, i, got, want)
			}
		}
	}
}
