// Treesearch: an unbalanced tree search (the motif of the paper's UTS
// benchmark) run under all four scheduling policies, showing how
// continuation stealing handles irregular parallelism.
//
// The tree is generated on the fly from a splitmix-style hash, so every
// worker can expand any subtree with no communication — work moves only
// through steals.
//
// Run with: go run ./examples/treesearch
package main

import (
	"fmt"
	"os"

	"contsteal"
)

// node derives a deterministic pseudo-random state for a tree node.
func node(parent uint64, child int) uint64 {
	x := parent + uint64(child)*0x9E3779B97F4A7C15 + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// children returns an irregular branching factor: most nodes are leaves,
// a few fan out widely — exactly the imbalance work stealing must fix.
// The first levels always branch so the tree never fizzles at the root.
func children(state uint64, depth int) int {
	if depth >= 14 {
		return 0
	}
	if depth < 3 {
		return 4
	}
	switch state % 8 {
	case 0, 1, 2, 3, 4:
		return 0
	case 5, 6:
		return 2
	default:
		return 9
	}
}

// search counts nodes in the subtree rooted at state.
func search(c *contsteal.Ctx, state uint64, depth int) int64 {
	c.Compute(500 * contsteal.Nanosecond) // per-node "hash" work
	nc := children(state, depth)
	if nc == 0 {
		return 1
	}
	hs := make([]contsteal.Handle, 0, nc-1)
	for i := 0; i < nc-1; i++ {
		st := node(state, i)
		hs = append(hs, c.Spawn(func(c *contsteal.Ctx) []byte {
			return contsteal.Int64Ret(search(c, st, depth+1))
		}))
	}
	total := 1 + search(c, node(state, nc-1), depth+1)
	for _, h := range hs {
		total += h.JoinInt64(c)
	}
	return total
}

func main() {
	policies := []contsteal.Policy{
		contsteal.ContGreedy, contsteal.ContStalling,
		contsteal.ChildFull, contsteal.ChildRtC,
	}
	fmt.Println("unbalanced tree search on 72 simulated cores (2 nodes, ITO-A model)")
	fmt.Printf("%-14s %12s %10s %12s %14s\n", "policy", "nodes", "time", "steals", "outst.joins")
	var want int64
	for k, pol := range policies {
		cfg := contsteal.Config{
			Machine: contsteal.ITOA(),
			Workers: 72,
			Policy:  pol,
			Seed:    3,
		}
		count, st := contsteal.RunInt64(cfg, func(c *contsteal.Ctx) int64 {
			return search(c, 0xC0FFEE, 0)
		})
		fmt.Printf("%-14v %12d %10v %12d %14d\n",
			pol, count, st.ExecTime, st.Work.StealsOK, st.Join.Outstanding)
		if k == 0 {
			want = count
		} else if count != want {
			fmt.Printf("FAIL: %v counts %d nodes, %v counted %d\n", pol, count, policies[0], want)
			os.Exit(1)
		}
	}
	fmt.Println("\nNote how child stealing produces orders of magnitude more outstanding")
	fmt.Println("joins — the effect §II-B of the paper predicts.")
}
