// Globalsum: tasks over a PGAS global array — the "global heap" substrate
// the paper's conclusion lists as future work, layered on the
// continuation-stealing runtime.
//
// A distributed histogram: input values live in a block-distributed global
// array; tasks process index ranges with ParallelFor (migrating freely
// under work stealing, since global addresses are location-transparent) and
// accumulate into a small global array of counters with remote atomics.
//
// Run with: go run ./examples/globalsum
package main

import (
	"fmt"
	"os"

	"contsteal"
)

const (
	elements = 1 << 14
	buckets  = 8
)

func main() {
	cfg := contsteal.Config{
		Machine: contsteal.ITOA(),
		Workers: 72,
		Policy:  contsteal.ContGreedy,
		Seed:    4,
	}
	rt := contsteal.NewRuntime(cfg)
	data := contsteal.NewGlobalInt64Array(rt, elements)
	hist := contsteal.NewGlobalInt64Array(rt, buckets)

	ret, stats := rt.Run(func(c *contsteal.Ctx) []byte {
		// Phase 1: initialize the global array in parallel; each task
		// writes a contiguous chunk with one coalesced range put.
		const chunk = 256
		contsteal.ParallelFor(c, 0, elements/chunk, 1, func(c *contsteal.Ctx, b int) {
			vs := make([]int64, chunk)
			for i := range vs {
				x := uint64(b*chunk+i) * 0x9E3779B97F4A7C15
				x ^= x >> 29
				vs[i] = int64(x % 1000)
			}
			data.SetRange(c, b*chunk, vs)
			c.Compute(2 * contsteal.Microsecond)
		})
		// Phase 2: histogram with remote atomics.
		contsteal.ParallelFor(c, 0, elements/chunk, 1, func(c *contsteal.Ctx, b int) {
			vs := data.GetRange(c, b*chunk, (b+1)*chunk)
			var local [buckets]int64
			for _, v := range vs {
				local[v*buckets/1000]++
			}
			c.Compute(3 * contsteal.Microsecond)
			for k, n := range local {
				if n > 0 {
					hist.FetchAdd(c, k, n)
				}
			}
		})
		// Phase 3: read back and verify the total.
		total := int64(0)
		for k := 0; k < buckets; k++ {
			total += hist.Get(c, k)
		}
		return contsteal.Int64Ret(total)
	})

	fmt.Printf("histogram over %d global elements on %d workers\n", elements, stats.Workers)
	fmt.Printf("virtual time %v, %d steals, %d remote gets, %d remote puts, %d atomics\n",
		stats.ExecTime, stats.Work.StealsOK, stats.Fabric.Gets, stats.Fabric.Puts, stats.Fabric.Atomics)
	if total := contsteal.RetInt64(ret); total != elements {
		fmt.Printf("FAIL: histogram counts %d elements, want %d\n", total, elements)
		os.Exit(1)
	}
	fmt.Println("all", elements, "elements counted — global heap + task migration compose")
}
