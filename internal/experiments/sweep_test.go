package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"contsteal/internal/core"
)

// TestSweepDeterministicUnderParallelism is the contract the whole PR rests
// on: the same grid run on 1 host worker and on 8 host workers must produce
// byte-identical rows in identical order. It runs under -race in CI.
func TestSweepDeterministicUnderParallelism(t *testing.T) {
	render := func(parallel int) string {
		o := Options{Machine: "itoa", Workers: 18, Seed: 7, Parallel: parallel}
		var b strings.Builder
		for _, r := range Fig6(o, "pfor", []int{64, 128}) {
			fmt.Fprintf(&b, "%+v\n", r)
		}
		for _, r := range Fig8(o, "T1L", []int{9, 18}, 6) {
			fmt.Fprintf(&b, "%+v\n", r)
		}
		for _, r := range Table3(o, []int{1 << 11}) {
			fmt.Fprintf(&b, "%+v\n", r)
		}
		res := Fig7(o, 128)
		fmt.Fprintf(&b, "%+v\n", res)
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("parallel sweep output diverges from sequential run:\n--- parallel=1 ---\n%s--- parallel=8 ---\n%s", seq, par)
	}
	if strings.TrimSpace(seq) == "" {
		t.Fatal("sweep produced no rows")
	}
}

func TestRunJobsGridOrder(t *testing.T) {
	// Jobs finish in reverse submission order (later jobs sleep less); the
	// results must still come back in grid order.
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Coord: Coord{Experiment: "order", Workers: i},
			Run: func() any {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i
			},
		}
	}
	for _, pool := range []int{1, 4, n} {
		results := RunJobs(pool, nil, jobs)
		for i, r := range results {
			if r.(int) != i {
				t.Fatalf("pool=%d: results[%d] = %v, want %d", pool, i, r, i)
			}
		}
	}
}

func TestRunJobsPanicBarrierReportsCoordinates(t *testing.T) {
	bad := Coord{Experiment: "fig6", Bench: "recpfor", Variant: "greedy", N: 512, Workers: 72, Seed: 42}
	jobs := []Job{
		{Coord: Coord{Experiment: "fig6", Variant: "baseline", Workers: 72}, Run: func() any { return 1 }},
		{Coord: bad, Run: func() any { panic("diverged") }},
		{Coord: Coord{Experiment: "fig6", Variant: "child-full", Workers: 72}, Run: func() any { return 3 }},
	}
	for _, pool := range []int{1, 2, 8} {
		func() {
			done := make(chan struct{})
			var recovered any
			go func() {
				defer close(done)
				defer func() { recovered = recover() }()
				RunJobs(pool, nil, jobs)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("pool=%d: sweep hung after job panic", pool)
			}
			je, ok := recovered.(*JobError)
			if !ok {
				t.Fatalf("pool=%d: recovered %T (%v), want *JobError", pool, recovered, recovered)
			}
			if je.Coord != bad {
				t.Errorf("pool=%d: JobError coordinates %+v, want %+v", pool, je.Coord, bad)
			}
			for _, want := range []string{"fig6", "bench=recpfor", "variant=greedy", "N=512", "workers=72", "seed=42", "diverged"} {
				if !strings.Contains(je.Error(), want) {
					t.Errorf("pool=%d: error %q missing %q", pool, je.Error(), want)
				}
			}
			if len(je.Stack) == 0 {
				t.Errorf("pool=%d: JobError carries no stack", pool)
			}
		}()
	}
}

// TestProgressHookSerializedAndComplete hands an Observer down on Options
// and expects every job of the grid reported once to each callback, done
// counting 1..total. The callbacks share state without a lock: the Observer
// serializes them, across both, and the race detector holds it to that.
func TestProgressHookSerializedAndComplete(t *testing.T) {
	var dones []int
	calls := map[string]int{}
	ob := &Observer{
		Progress: func(done, total int, c Coord, _ time.Duration) {
			if total != len(Variants()) {
				t.Errorf("total = %d, want %d", total, len(Variants()))
			}
			if calls["engine "+c.Variant] != 1 {
				t.Errorf("job %s finished before its engine counters were reported", c.Variant)
			}
			dones = append(dones, done)
			calls["job "+c.Variant]++
		},
		EngineStats: func(c Coord, st core.RunStats, shards int, _ time.Duration) {
			if shards != 1 || st.Engine.Events == 0 {
				t.Errorf("%s: shards=%d events=%d, want one shard and a run", c, shards, st.Engine.Events)
			}
			calls["engine "+c.Variant]++
		},
	}
	Fig6(Options{Workers: 18, Seed: 7, Parallel: 3, Observer: ob}, "pfor", []int{64})
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("done sequence %v not monotonically 1..%d", dones, len(Variants()))
			break
		}
	}
	for _, v := range Variants() {
		if calls["job "+v.Name] != 1 || calls["engine "+v.Name] != 1 {
			t.Errorf("variant %s reported %d/%d times, want once each", v.Name, calls["job "+v.Name], calls["engine "+v.Name])
		}
	}
}
