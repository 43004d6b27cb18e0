package workload

import (
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"testing"

	"contsteal/internal/allocs"
	"contsteal/internal/core"
)

// drawShapes are the trees whose threshold rows are checked against the
// float draw: the three presets, a tiny tree, and a shape whose clamp at
// MaxChildren binds (the presets' never does).
func drawShapes() []UTSTree {
	return []UTSTree{
		T1LPrime(), T1XXLPrime(), T1WLPrime(),
		{Name: "tiny", B0: 3, GenMx: 7, RootSeed: 5, MaxChildren: 50, NodeWork: 190},
		{Name: "clamped", B0: 4, GenMx: 9, RootSeed: 11, MaxChildren: 3, NodeWork: 190},
	}
}

// numChildrenFloat is the child-count draw computed in floating point, as
// the UTS construction states it: the reference NumChildren's threshold
// rows are held to.
func (t UTSTree) numChildrenFloat(n UTSNode) int {
	if n.Depth >= t.GenMx {
		return 0
	}
	logQ := t.logQ(n.Depth)
	if logQ == 0 {
		return 0
	}
	return t.draw(drawBits(n), logQ)
}

// nodeWithBits is a node at depth d whose draw bits are v.
func nodeWithBits(d int, v uint32) UTSNode {
	n := UTSNode{Depth: d}
	binary.BigEndian.PutUint32(n.Desc[16:20], v)
	return n
}

// TestDrawRowsMatchFloat: the row draw equals the float draw on both
// sides of every threshold, at both ends of the range and at 10⁵ seeded
// random draw bits per depth. TestUTSTreeSizesOrdered holds the walks that
// read the rows to the pinned tree sizes.
func TestDrawRowsMatchFloat(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 5))
	for _, tree := range drawShapes() {
		rows := tree.drawRows()
		clamped := false
		for d := 0; d < tree.GenMx; d++ {
			check := func(v uint32) {
				t.Helper()
				n := nodeWithBits(d, v)
				if got, want := numChildren(n, rows), tree.numChildrenFloat(n); got != want {
					t.Fatalf("%s depth %d v %#x: row draw %d, float draw %d", tree.Name, d, v, got, want)
				}
			}
			for k, th := range rows[d] {
				if k > 0 && th < rows[d][k-1] {
					t.Fatalf("%s depth %d: row decreases at %d: %v", tree.Name, d, k, rows[d])
				}
				if th > 0 {
					check(th - 1)
				}
				check(th)
			}
			check(0)
			check(1<<32 - 1)
			for i := 0; i < 100_000; i++ {
				check(rng.Uint32())
			}
			clamped = clamped || len(rows[d]) == tree.MaxChildren
		}
		if tree.MaxChildren == 3 && !clamped {
			t.Errorf("%s: no row reaches MaxChildren, so the clamp is untested", tree.Name)
		}
	}
}

// TestCountWalkAllocFree: once a walker has walked a tree, walking it again
// allocates nothing — the walker is reused and its stack is big enough.
func TestCountWalkAllocFree(t *testing.T) {
	tree := UTSTree{Name: "tiny", B0: 3, GenMx: 7, RootSeed: 5, MaxChildren: 50, NodeWork: 190}
	rows, root := tree.drawRows(), tree.Root()
	if m := allocs.Count(100, func() { _ = countSubtree(root, rows) }); m != 0 {
		t.Errorf("100 walks allocated %d times, want 0", m)
	}
}

// TestSubtreeMemoHitAllocFree: a subtree-memo hit allocates nothing — the
// key is a typed struct, not boxed in an interface.
func TestSubtreeMemoHitAllocFree(t *testing.T) {
	tree := UTSTree{Name: "tiny", B0: 3, GenMx: 7, RootSeed: 5, MaxChildren: 50, NodeWork: 190}
	s, n := tree.state(), tree.Child(tree.Root(), 0)
	want := s.subtree(n)
	var got int64
	if m := allocs.Count(1000, func() { got = s.subtree(n) }); m != 0 {
		t.Errorf("1,000 subtree-memo hits allocated %d times, want 0", m)
	}
	if got != want {
		t.Errorf("memo hit = %d, walk = %d", got, want)
	}
}

// hashEachNode makes count walks hash one node at a time, as on a CPU
// without the lane kernel, until restore is called.
func hashEachNode() (restore func()) {
	was := haveSHA1x16
	haveSHA1x16 = false
	return func() { haveSHA1x16 = was }
}

// hashPaths runs f once on each way a count walk can hash: sixteen nodes a
// sha1x16 call, where the CPU has the kernel, and one childDesc a node.
func hashPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("lanes", func(t *testing.T) {
		if !haveSHA1x16 {
			t.Skip("no SHA-1 lane kernel here: the CPU lacks AVX-512F, the operating system does not save the AVX-512 registers, or this is not amd64")
		}
		f(t)
	})
	t.Run("each", func(t *testing.T) {
		defer hashEachNode()()
		f(t)
	})
}

// TestCountWalkHashPaths: both hash paths of the count walk give the
// pinned preset sizes, and a traversal whose serial subtrees they count
// memoizes the same count for every subtree, at the depth-9 subtrees of
// T1WL' (as uts_fig9 memoizes them) and the depth-11 ones of T1XXL'.
func TestCountWalkHashPaths(t *testing.T) {
	memos := map[string][]map[nodeKey]int64{}
	hashPaths(t, func(t *testing.T) {
		for _, c := range []struct {
			tree UTSTree
			want int64
		}{{T1LPrime(), 67_311}, {T1XXLPrime(), 1_445_354}, {T1WLPrime(), 5_409_181}} {
			if got := countSubtree(c.tree.Root(), c.tree.state().rows); got != c.want {
				t.Errorf("%s: walk counted %d nodes, want %d", c.tree.Name, got, c.want)
			}
		}
		for _, c := range []struct {
			tree UTSTree
			seq  int
		}{{T1WLPrime(), 10}, {T1XXLPrime(), 6}} {
			u := &utsTraversal{t: c.tree, s: &shapeState{rows: c.tree.drawRows(), sub: map[nodeKey]int64{}}, seq: c.seq}
			ret, _ := core.New(cfg(core.ContGreedy, 4)).Run(u.root)
			if got, want := core.RetInt64(ret), c.tree.CountSerial(); got != want {
				t.Errorf("UTS(%s, %d) = %d, CountSerial %d", c.tree.Name, c.seq, got, want)
			}
			memos[c.tree.Name] = append(memos[c.tree.Name], u.s.sub)
		}
	})
	for name, m := range memos {
		if len(m) < 2 {
			continue
		}
		if len(m[0]) != len(m[1]) {
			t.Errorf("%s: the paths memoized %d and %d subtrees", name, len(m[0]), len(m[1]))
		}
		for k, v := range m[0] {
			if w, ok := m[1][k]; !ok || w != v {
				t.Errorf("%s: subtree %x at depth %d: %d on the lane path, %d (present %v) one at a time", name, k.desc, k.depth, v, w, ok)
				break
			}
		}
	}
}

// runUTS runs UTS(tree, seq) on four workers and returns its count.
func runUTS(tree UTSTree, seq int) int64 {
	ret, _ := core.New(cfg(core.ContGreedy, 4)).Run(UTS(tree, seq))
	return core.RetInt64(ret)
}

// TestUTSMemoPerShape: T1XXL' and T1WL' share a root seed, so their nodes
// at equal depths have equal descriptors but different subtrees. The two
// thresholds below make both traversals memoize depth-9 nodes; a memo keyed
// by node alone would hand T1WL' the counts of T1XXL'.
func TestUTSMemoPerShape(t *testing.T) {
	xxl, wl := T1XXLPrime(), T1WLPrime()
	if xxl.RootSeed != wl.RootSeed || xxl.GenMx-8 != wl.GenMx-10 {
		t.Fatalf("the presets no longer overlap: seeds %d, %d; memoized depths %d, %d", xxl.RootSeed, wl.RootSeed, xxl.GenMx-8, wl.GenMx-10)
	}
	if got, want := runUTS(xxl, 8), xxl.CountSerial(); got != want {
		t.Errorf("UTS(T1XXL', 8) = %d, CountSerial %d", got, want)
	}
	if got, want := runUTS(wl, 10), wl.CountSerial(); got != want {
		t.Errorf("UTS(T1WL', 10) = %d after T1XXL', CountSerial %d", got, want)
	}
}

// TestUTSMemoConcurrent runs the two shapes of TestUTSMemoPerShape on four
// goroutines at once, at thresholds that memoize depth-5 nodes no other
// test reaches, so concurrent misses, stores and hits all happen; the race
// tier of scripts/ci.sh runs it under the race detector.
func TestUTSMemoConcurrent(t *testing.T) {
	trees := []UTSTree{T1XXLPrime(), T1WLPrime()}
	want := []int64{1_445_354, 5_409_181}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := trees[i]
			if got := runUTS(tree, tree.GenMx-5); got != want[i] {
				t.Errorf("%s: concurrent UTS = %d, want %d", tree.Name, got, want[i])
			}
		}(g % 2)
	}
	wg.Wait()
}

// BenchmarkCountSerial: one serial count of T1XXL' per op, on each hash
// path of the walk — sixteen nodes a sha1x16 call where the CPU has the
// kernel, and one childDesc a node.
func BenchmarkCountSerial(b *testing.B) {
	tree := T1XXLPrime()
	rows, root := tree.state().rows, tree.Root()
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkCount = countSubtree(root, rows)
		}
	}
	b.Run("lanes", func(b *testing.B) {
		if !haveSHA1x16 {
			b.Skip("no SHA-1 lane kernel here")
		}
		run(b)
	})
	b.Run("each", func(b *testing.B) {
		defer hashEachNode()()
		run(b)
	})
}

var sinkCount int64
