package core_test

import (
	"runtime"
	"testing"

	"contsteal/internal/core"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// TestRankFootprintFollowsLiveState is the regression fence for paper-scale
// runs: a rank costs the host what it touches — ring bytes used, stack pile
// depth, evacuated stacks — not what it reserves (deque ring, 4 MiB uni
// region, 16 MiB evacuation region). One evacuation used to commit megabytes
// on its rank.
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

// TestRankHeapFollowsLiveState is the host-heap half of the per-rank fence:
// right after New, before any task runs, a rank holds no payload ring sized
// by the deque's capacity (it grows with occupancy), so its live heap is the
// same few KiB at any capacity and any rank count. Config.Metrics adds one
// instrument set for the whole runtime, nothing a rank: at most 0.25 KiB a
// rank over the metrics-off heap.
func TestRankHeapFollowsLiveState(t *testing.T) {
	const limit, metricsLimit = 16 << 10, 256
	perRank := func(cfg core.Config) int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		rt := core.New(cfg)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(rt)
		return (int64(ms.HeapAlloc) - int64(before)) / int64(cfg.Workers)
	}
	for _, dequeCap := range []int{1024, 0} { // 0: the default, 8,192
		for _, workers := range []int{432, 1728} { // 12 and 48 WISTERIA-O nodes
			cfg := core.Config{
				Machine:    topo.WisteriaO(),
				Workers:    workers,
				Policy:     core.ContGreedy,
				RemoteFree: remobj.LocalCollection,
				Seed:       42,
				DequeCap:   dequeCap,
			}
			off := perRank(cfg)
			cfg.Metrics = true
			on := perRank(cfg)
			t.Logf("DequeCap %d, %d ranks: %.1f KiB of live heap per rank, %.2f KiB with metrics",
				dequeCap, workers, float64(off)/1024, float64(on)/1024)
			if off > limit {
				t.Errorf("DequeCap %d, %d ranks: New left %.1f KiB of live heap per rank, want at most %d",
					dequeCap, workers, float64(off)/1024, limit>>10)
			}
			if on-off > metricsLimit {
				t.Errorf("DequeCap %d, %d ranks: Config.Metrics adds %d B of live heap per rank, want at most %d",
					dequeCap, workers, on-off, metricsLimit)
			}
		}
	}
}
