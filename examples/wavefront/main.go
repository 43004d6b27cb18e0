// Wavefront: a 2-D dependency grid expressed with multi-consumer futures —
// the dependency pattern of the paper's LCS benchmark (Fig. 10), where each
// cell needs its top and left neighbours.
//
// Every grid cell is a future consumed by up to two successors (the cell to
// its right and the cell below). Under the greedy-join runtime a suspended
// consumer is resumed the instant its input completes, migrating it to
// whichever worker finished the producer; under stalling join it waits in
// the wait queue of the worker it suspended on. Compare the steal and
// migration counts below — and see the full LCS benchmark (`repro table3`,
// internal/workload/lcs.go), whose recursive decomposition is where
// migration at joins becomes decisive (Table III of the paper).
//
// This pattern is promoted to a first-class experiment workload in
// internal/workload/dag.go (seeded wavefront/stencil DAGs with a
// single-threaded topological oracle), swept across steal policies by
// `repro stealzoo`.
//
// Run with: go run ./examples/wavefront
package main

import (
	"fmt"
	"os"

	"contsteal"
)

const gridN = 16 // gridN × gridN cells

func main() {
	want := serialWavefront()
	for _, pol := range []contsteal.Policy{contsteal.ContGreedy, contsteal.ContStalling} {
		cfg := contsteal.Config{
			Machine: contsteal.ITOA(),
			Workers: 36,
			Policy:  pol,
			Seed:    9,
		}
		sum, st := contsteal.RunInt64(cfg, wavefront)
		fmt.Printf("%-14v checksum=%-8d time=%-10v steals=%d migrations=%d\n",
			pol, sum, st.ExecTime, st.Work.StealsOK, st.Stack.MigrationsIn)
		if sum != want {
			fmt.Printf("FAIL: %v checksum %d, serial loop %d\n", pol, sum, want)
			os.Exit(1)
		}
	}
}

// cell is the recurrence every grid cell computes from its top and left
// neighbours (0 off the grid).
func cell(i, j int, top, left int64) int64 { return (top + left + int64(i*j+1)) % 1000003 }

// serialWavefront evaluates the same recurrence with a plain loop: the
// checksum both policies must reproduce.
func serialWavefront() int64 {
	var row [gridN]int64 // row[j] holds the cell above until overwritten
	for i := 0; i < gridN; i++ {
		var left int64
		for j := 0; j < gridN; j++ {
			row[j] = cell(i, j, row[j], left)
			left = row[j]
		}
	}
	return row[gridN-1]
}

// wavefront builds the grid of futures and returns the bottom-right value.
func wavefront(c *contsteal.Ctx) int64 {
	cells := make([][]contsteal.Handle, gridN)
	for i := range cells {
		cells[i] = make([]contsteal.Handle, gridN)
	}
	for i := 0; i < gridN; i++ {
		for j := 0; j < gridN; j++ {
			i, j := i, j
			var top, left contsteal.Handle
			if i > 0 {
				top = cells[i-1][j]
			}
			if j > 0 {
				left = cells[i][j-1]
			}
			// Consumers: the cell below (if any), the cell to the right
			// (if any), and — for the final cell — the main task.
			consumers := 0
			if i < gridN-1 {
				consumers++
			}
			if j < gridN-1 {
				consumers++
			}
			if consumers == 0 {
				consumers = 1 // bottom-right: joined by us
			}
			cells[i][j] = c.SpawnFuture(consumers, func(c *contsteal.Ctx) []byte {
				var t, l int64
				if top.Valid() {
					t = top.JoinInt64(c)
				}
				if left.Valid() {
					l = left.JoinInt64(c)
				}
				c.Compute(20 * contsteal.Microsecond) // the cell kernel
				return contsteal.Int64Ret(cell(i, j, t, l))
			})
		}
	}
	return cells[gridN-1][gridN-1].JoinInt64(c)
}
