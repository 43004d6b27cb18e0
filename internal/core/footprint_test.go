package core_test

import (
	"testing"

	"contsteal/internal/core"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// TestRankFootprintFollowsLiveState is the regression fence for paper-scale
// runs (ROADMAP item 3): a rank costs the host what it touches — ring bytes
// used, stack pile depth, evacuated stacks — not what it reserves (deque
// ring, 4 MiB uni region, 16 MiB evacuation region). One evacuation used to
// commit megabytes on its rank.
func TestRankFootprintFollowsLiveState(t *testing.T) {
	const workers = 72 // two ITO-A nodes
	tree := workload.UTSTree{Name: "tiny", B0: 3, GenMx: 14, RootSeed: 5, MaxChildren: 50, NodeWork: 190}
	rt := core.New(core.Config{
		Machine:    topo.ITOA(),
		Workers:    workers,
		Policy:     core.ContGreedy,
		RemoteFree: remobj.LocalCollection,
		Seed:       42,
		MaxTime:    10 * sim.Second,
	})
	ret, st := rt.Run(workload.UTS(tree, 0))
	if got, want := core.RetInt64(ret), tree.CountSerial(); got != want {
		t.Fatalf("traversal counted %d nodes, want %d", got, want)
	}
	if st.Stack.Evacuations == 0 || st.Stack.MigrationsIn == 0 {
		t.Fatalf("run too tame to fence anything: %d evacuations, %d migrations", st.Stack.Evacuations, st.Stack.MigrationsIn)
	}
	var total uint64
	for r := 0; r < workers; r++ {
		total += rt.Fabric().Seg(r).Backing()
	}
	t.Logf("%d tasks, %d evacuations: %d KiB of backing per rank", st.Work.Tasks, st.Stack.Evacuations, total/workers>>10)
	if perRank := total / workers; perRank > 256<<10 {
		t.Errorf("%d tasks on %d ranks committed %d KiB of segment backing per rank, want at most 256", st.Work.Tasks, workers, perRank>>10)
	}
}
