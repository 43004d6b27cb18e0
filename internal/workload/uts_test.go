package workload

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"contsteal/internal/allocs"
	"contsteal/internal/core"
	"contsteal/internal/sim"
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

// scanRow is the child count read off a threshold row from its first
// entry, without the start table.
func scanRow(th []uint32, v uint32) int {
	k := 0
	for k < len(th) && th[k] <= v {
		k++
	}
	return k
}

// TestDrawRowsMatchFloat: the row draw equals the float draw on both
// sides of every threshold, at both ends of the range and at 10⁵ seeded
// random draw bits per depth; and childCount, which starts its scan from
// the start table, equals a scan of the row from its first entry on both
// sides of every bucket edge b<<24, at every threshold T and T − 1, and at
// 2³² − 1. TestUTSTreeSizesOrdered holds the walks that read the rows to
// the pinned tree sizes.
func TestDrawRowsMatchFloat(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 5))
	for _, tree := range drawShapes() {
		rows := tree.drawRows()
		clamped := false
		for d := 0; d < tree.GenMx; d++ {
			th := rows[d].th
			check := func(v uint32) {
				t.Helper()
				n := nodeWithBits(d, v)
				if got, want := numChildren(n, rows), tree.numChildrenFloat(n); got != want {
					t.Fatalf("%s depth %d v %#x: row draw %d, float draw %d", tree.Name, d, v, got, want)
				}
			}
			scan := func(v uint32) {
				t.Helper()
				if got, want := childCount(d, v, rows), scanRow(th, v); got != want {
					t.Fatalf("%s depth %d v %#x: childCount %d from start entry %d, a scan of the row %d", tree.Name, d, v, got, rows[d].start[v>>24], want)
				}
			}
			for k, T := range th {
				if k > 0 && T < th[k-1] {
					t.Fatalf("%s depth %d: row decreases at %d: %v", tree.Name, d, k, th)
				}
				if T > 0 {
					check(T - 1)
					scan(T - 1)
				}
				check(T)
				scan(T)
			}
			for b := uint32(0); b < 256; b++ {
				if b > 0 {
					scan(b<<24 - 1)
				}
				scan(b << 24)
			}
			check(0)
			check(1<<32 - 1)
			scan(1<<32 - 1)
			for i := 0; i < 100_000; i++ {
				check(rng.Uint32())
			}
			clamped = clamped || len(th) == tree.MaxChildren
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
	s, n := tree.state(), tree.Child(tree.Root(), 1)
	if tree.NumChildren(n) == 0 {
		t.Fatal("the node is a leaf: subtree answers 1 without the memo, so there is no hit to measure")
	}
	want := s.subtree(n)
	k := nodeKey{n.Desc, int32(n.Depth)}
	if s.memo.Load().lookup(&k) != want {
		t.Fatalf("the memo does not hold the node's count %d", want)
	}
	var got int64
	if m := allocs.Count(1000, func() { got = s.subtree(n) }); m != 0 {
		t.Errorf("1,000 subtree-memo hits allocated %d times, want 0", m)
	}
	if got != want {
		t.Errorf("memo hit = %d, walk = %d", got, want)
	}
}

// snapshot returns the memo's entries.
func (s *shapeState) snapshot() map[nodeKey]int64 {
	m := map[nodeKey]int64{}
	t := s.memo.Load()
	for i := range t.slots {
		sl := &t.slots[i]
		if c := sl.count.Load(); c != 0 {
			m[sl.key] = c
		}
	}
	return m
}

// TestUTSMemoHoldsNoLeaf: a traversal that counts serially below depth 6
// memoizes only nodes with children, each with its walked count, and counts
// the tree right.
func TestUTSMemoHoldsNoLeaf(t *testing.T) {
	tree := T1LPrime()
	s := newShapeState(tree)
	u := &utsTraversal{t: tree, s: s, seq: tree.GenMx - 6}
	ret, _ := core.New(cfg(core.ContGreedy, 4)).Run(u.root)
	if got, want := core.RetInt64(ret), tree.CountSerial(); got != want {
		t.Fatalf("UTS = %d, CountSerial %d", got, want)
	}
	memo := s.snapshot()
	if len(memo) == 0 {
		t.Fatal("the traversal memoized nothing")
	}
	for k, c := range memo {
		n := UTSNode{Desc: k.desc, Depth: int(k.depth)}
		if tree.NumChildren(n) == 0 || c < 2 {
			t.Fatalf("the memo holds a leaf at depth %d (count %d)", k.depth, c)
		}
		if w := countSubtree(n, s.rows); c != w {
			t.Fatalf("memoized count %d at depth %d, walk %d", c, k.depth, w)
		}
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
			u := &utsTraversal{t: c.tree, s: newShapeState(c.tree), seq: c.seq}
			ret, _ := core.New(cfg(core.ContGreedy, 4)).Run(u.root)
			if got, want := core.RetInt64(ret), c.tree.CountSerial(); got != want {
				t.Errorf("UTS(%s, %d) = %d, CountSerial %d", c.tree.Name, c.seq, got, want)
			}
			memos[c.tree.Name] = append(memos[c.tree.Name], u.s.snapshot())
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

// frontierNodes returns the nodes of the tree at depth fd, found by
// recursion through Child rather than by a count walk.
func frontierNodes(tree UTSTree, fd int) []UTSNode {
	var out []UTSNode
	var visit func(n UTSNode)
	visit = func(n UTSNode) {
		if n.Depth == fd {
			out = append(out, n)
			return
		}
		for i := range tree.NumChildren(n) {
			visit(tree.Child(n, i))
		}
	}
	visit(tree.Root())
	return out
}

// TestFrontierWalkCounts: on both hash paths, one frontier walk counts the
// whole tree to its pinned size and memoizes exactly the frontier nodes
// that have children, each with the count of a walk of its subtree alone:
// T1WL' at threshold 10 (frontier depth 9, as uts_fig9 runs it), T1XXL' at
// 6 (depth 11, as uts_shards2 runs it), T1L' at 1 (depth 14: subtrees of
// one level) and T1L' at a threshold above GenMx, where the root is the
// frontier.
func TestFrontierWalkCounts(t *testing.T) {
	hashPaths(t, func(t *testing.T) {
		for _, c := range []struct {
			tree UTSTree
			seq  int
			want int64
		}{{T1WLPrime(), 10, 5_409_181}, {T1XXLPrime(), 6, 1_445_354}, {T1LPrime(), 1, 67_311}, {T1LPrime(), 20, 67_311}} {
			fd := max(c.tree.GenMx-c.seq, 0)
			s := newShapeState(c.tree)
			w := getWalker()
			got := w.walk(s.root, s.rows, s, fd)
			putWalker(w)
			if got != c.want {
				t.Errorf("%s, frontier depth %d: walk counted %d nodes, want %d", c.tree.Name, fd, got, c.want)
			}
			memo, subtrees := s.snapshot(), 0
			for _, n := range frontierNodes(c.tree, fd) {
				if c.tree.NumChildren(n) == 0 {
					continue
				}
				subtrees++
				if m, want := memo[nodeKey{n.Desc, int32(fd)}], countSubtree(n, s.rows); m != want {
					t.Fatalf("%s, frontier depth %d: subtree %x memoized as %d, a walk of it alone counts %d", c.tree.Name, fd, n.Desc, m, want)
				}
			}
			if len(memo) != subtrees || subtrees == 0 {
				t.Errorf("%s, frontier depth %d: the memo holds %d subtrees, the frontier has %d with children", c.tree.Name, fd, len(memo), subtrees)
			}
		}
	})
}

// TestFrontierWalkFillsLanes: the frontier walk of T1WL' at depth 9 takes
// its 5,409,181 nodes in at most 1.02 × ⌈nodes/16⌉ rounds, where a walk of
// each frontier subtree on its own took 518,625: runs of every subtree fill
// the lanes, so only the first and last few rounds run short.
func TestFrontierWalkFillsLanes(t *testing.T) {
	tree := T1WLPrime()
	s := newShapeState(tree)
	w := getWalker()
	defer putWalker(w)
	nodes := w.walk(s.root, s.rows, s, 9)
	full := (nodes + lanes - 1) / lanes
	if limit := full + full/50; int64(w.rounds) > limit {
		t.Errorf("the walk took %d nodes in %d rounds, want at most %d (⌈nodes/16⌉ = %d)", nodes, w.rounds, limit, full)
	}
}

// TestUTSMemoFrontierWalkedOnce: four goroutines start traversals of one
// fresh shape at once (T1XXL', serial below depth 8). One walks the
// frontier, the others wait for that walk, and all four count the tree
// right and charge the same simulated time. The test tier of scripts/ci.sh
// runs it under the race detector at one and four Ps.
func TestUTSMemoFrontierWalkedOnce(t *testing.T) {
	tree := T1XXLPrime()
	s := newShapeState(tree)
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		count [4]int64
		exec  [4]sim.Time
	)
	for g := range count {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			u := &utsTraversal{t: tree, s: s, seq: tree.GenMx - 8}
			ret, st := core.New(cfg(core.ContGreedy, 4)).Run(u.root)
			count[g], exec[g] = core.RetInt64(ret), st.ExecTime
		}()
	}
	close(start)
	wg.Wait()
	if n := s.walks.Load(); n != 1 {
		t.Errorf("the frontier was walked %d times, want once", n)
	}
	for g := range count {
		if count[g] != 1_445_354 || exec[g] != exec[0] {
			t.Errorf("traversal %d counted %d nodes in %v, want 1,445,354 in %v (traversal 0's)", g, count[g], exec[g], exec[0])
		}
	}
}

// TestUTSMemoFrontierWalkAllocFree: once a walker has walked a tree, a
// frontier walk into a memo with room for all its keys allocates nothing:
// 0 mallocs in all over 10 walks of T1L' at depth 9, each into a fresh
// table, which it fills. The open subtrees reuse their entries, and a store
// that does not grow the table only writes a slot.
func TestUTSMemoFrontierWalkAllocFree(t *testing.T) {
	const fd, runs = 9, 10
	s := newShapeState(T1LPrime())
	w := getWalker()
	defer putWalker(w)
	w.walk(s.root, s.rows, s, fd)
	keys, size := s.memo.Load().used, 64
	for 4*keys > 3*size {
		size *= 2
	}
	tables := make([]*memoTable, runs+1) // allocs.Count's warm-up, then runs
	for i := range tables {
		tables[i] = &memoTable{slots: make([]memoSlot, size)}
	}
	used := 0
	m := allocs.Count(runs, func() {
		s.memo.Store(tables[used])
		used++
		w.walk(s.root, s.rows, s, fd)
	})
	if m != 0 {
		t.Errorf("%d frontier walks allocated %d times, want 0", runs, m)
	}
	for i, tab := range tables {
		if tab.used != keys {
			t.Errorf("table %d holds %d keys, want %d", i, tab.used, keys)
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
// goroutines at once, two a shape, each pair on a fresh memo, at thresholds
// that memoize depth-8 nodes (some 18 k and 23 k of them), so each shape's
// frontier walk stores and grows its memo while the other shape's walk
// does the same and the other traversals wait or hit. A fifth goroutine
// reads both memos all the while and must see each replaced by a larger
// copy at least once. The test tier of scripts/ci.sh runs it under the
// race detector at one and four Ps.
func TestUTSMemoConcurrent(t *testing.T) {
	trees := []UTSTree{T1XXLPrime(), T1WLPrime()}
	want := []int64{1_445_354, 5_409_181}
	states := []*shapeState{newShapeState(trees[0]), newShapeState(trees[1])}
	var (
		wg   sync.WaitGroup
		done = make(chan struct{}) // closed when the traversals are
		read = make(chan struct{}) // closed when the reader is
		grew [2]int                // growths the reader saw, a shape
	)
	go func() {
		defer close(read)
		// The root is never memoized, so each lookup probes to a free slot,
		// reading the keys of the slots in front of it.
		var probe [2]nodeKey
		tables := make([]*memoTable, len(states))
		for i, s := range states {
			probe[i] = nodeKey{trees[i].Root().Desc, 0}
			tables[i] = s.memo.Load()
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			for i, s := range states {
				tab := s.memo.Load()
				if tab.lookup(&probe[i]) != 0 {
					t.Errorf("%s: the memo holds the root", trees[i].Name)
				}
				if len(tab.slots) > len(tables[i].slots) {
					grew[i]++
				}
				tables[i] = tab
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := &utsTraversal{t: trees[i], s: states[i], seq: trees[i].GenMx - 8}
			ret, _ := core.New(cfg(core.ContGreedy, 4)).Run(u.root)
			if got := core.RetInt64(ret); got != want[i] {
				t.Errorf("%s: concurrent UTS = %d, want %d", trees[i].Name, got, want[i])
			}
		}(g % 2)
	}
	wg.Wait()
	close(done)
	<-read
	for i, s := range states {
		if grew[i] == 0 {
			t.Errorf("%s: the memo (%d slots, %d keys) never grew while it was read", trees[i].Name, len(s.memo.Load().slots), len(s.snapshot()))
		}
	}
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

// BenchmarkFrontierWalk: one frontier walk of T1XXL' at depth 11, the
// frontier uts_shards2 memoizes, per op, into a table with room for its
// 98,855 subtrees (made outside the timer), on each hash path, and its
// cost a node.
func BenchmarkFrontierWalk(b *testing.B) {
	tree := T1XXLPrime()
	s := newShapeState(tree)
	run := func(b *testing.B) {
		w := getWalker()
		defer putWalker(w)
		var nodes int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.memo.Store(&memoTable{slots: make([]memoSlot, 1<<18)})
			b.StartTimer()
			nodes = w.walk(s.root, s.rows, s, 11)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
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
