package workload

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"contsteal/internal/core"
	"contsteal/internal/sim"
)

// UTS — the Unbalanced Tree Search benchmark (Olivier et al., LCPC '06).
//
// The task is to count the nodes of a tree generated on the fly from a
// cryptographic hash: each node carries a 20-byte SHA-1 descriptor, and the
// descriptor of child i is SHA-1(parent descriptor ‖ i), so the identical
// tree is produced deterministically from the root seed alone, on any
// worker, with no communication.
//
// We implement the geometric tree shape: at depth d the number of children
// is geometrically distributed with expectation b(d) = b0·(1 − d/gen_mx)
// (the "linear" shape function used by the T1 family), truncated at depth
// gen_mx. The paper's tree instances T1L/T1XXL/T1WL have ~1e8–2.7e11 nodes;
// full-size trees cannot be executed event-by-event in a simulator, so the
// presets below (T1L', T1XXL', T1WL') keep the shape parameters (b0=4,
// linear decay, heavy imbalance) at reduced depth — the substitution
// documented in DESIGN.md. The full-size parameters remain expressible by
// constructing UTSTree directly.
type UTSTree struct {
	Name     string
	B0       float64 // expected branching at the root
	GenMx    int     // maximum depth
	RootSeed int32
	// MaxChildren caps the geometric sample (the reference implementation
	// uses the same guard against pathological tails).
	MaxChildren int
	// NodeWork is the per-node traversal cost on the reference machine:
	// one SHA-1 per child plus bookkeeping. The paper's serial rate on
	// ITO-A is 5.27 Mnodes/s ⇒ ~190 ns/node.
	NodeWork sim.Time
}

// The scaled-down counterparts of the paper's three geometric trees,
// ordered T1L' < T1XXL' < T1WL' like the originals.
func T1LPrime() UTSTree {
	return UTSTree{Name: "T1L'", B0: 4, GenMx: 15, RootSeed: 19, MaxChildren: 100, NodeWork: 190}
}

func T1XXLPrime() UTSTree {
	return UTSTree{Name: "T1XXL'", B0: 4, GenMx: 17, RootSeed: 316, MaxChildren: 100, NodeWork: 190}
}

func T1WLPrime() UTSTree {
	return UTSTree{Name: "T1WL'", B0: 4, GenMx: 19, RootSeed: 316, MaxChildren: 100, NodeWork: 190}
}

// UTSNode is a tree node: its SHA-1 descriptor plus its depth.
type UTSNode struct {
	Desc  [20]byte
	Depth int
}

// Root returns the root node derived from the tree's seed.
func (t UTSTree) Root() UTSNode {
	var seed [4]byte
	binary.BigEndian.PutUint32(seed[:], uint32(t.RootSeed))
	return UTSNode{Desc: sha1.Sum(seed[:])}
}

// Child derives child i of node n: its descriptor is SHA-1(n.Desc ‖
// BE32(i)). On amd64 with the SHA extensions that is one call of an
// assembly kernel on a pre-padded block (utshash_amd64.s); elsewhere it is
// crypto/sha1, with the same digest.
func (t UTSTree) Child(n UTSNode, i int) UTSNode {
	c := UTSNode{Depth: n.Depth + 1}
	childDesc(&c.Desc, &n.Desc, uint32(i))
	return c
}

// childDesc writes SHA-1(parent ‖ BE32(i)) into dst.
func childDesc(dst, parent *[20]byte, i uint32) {
	if haveSHANI {
		childDescNI(dst, parent, i)
		return
	}
	childDescSHA1(dst, parent, i)
}

// childDescSHA1 writes SHA-1(parent ‖ BE32(i)) into dst with crypto/sha1:
// the fallback wherever the kernel cannot run, and its reference in tests.
func childDescSHA1(dst, parent *[20]byte, i uint32) {
	var buf [24]byte
	copy(buf[:20], parent[:])
	binary.BigEndian.PutUint32(buf[20:], i)
	*dst = sha1.Sum(buf[:])
}

// NumChildren returns the child count of a node: the standard UTS geometric
// draw — u uniform in [0,1) from the hash, p = 1/(1+b(d)),
// m = ⌊log(1−u)/log(1−p)⌋, clamped to MaxChildren — read off the tree
// shape's threshold rows, exactly as every traversal reads it.
func (t UTSTree) NumChildren(n UTSNode) int {
	return numChildren(n, t.state().rows)
}

// logQ returns log(1−p(d)) for a depth d below GenMx, or 0 — a value
// log(1−p) never takes — when b(d) ≤ 0 and a node at depth d has no
// children.
func (t UTSTree) logQ(d int) float64 {
	b := t.B0
	if d > 0 {
		b = t.B0 * (1.0 - float64(d)/float64(t.GenMx))
	}
	if b <= 0 {
		return 0
	}
	return math.Log(1 - 1.0/(1.0+b))
}

// drawBits returns the 32 descriptor bits the child-count draw reads.
func drawBits(n UTSNode) uint32 {
	return binary.BigEndian.Uint32(n.Desc[16:20])
}

// logOneMinusU returns log(1−u) for u = v/2³². The draw is monotone in v
// only because this is non-increasing over all 2³² v, which the exhaustive
// test (uts_exhaustive_test.go) checks.
func logOneMinusU(v uint32) float64 {
	return math.Log(1 - float64(v)/float64(1<<32))
}

// draw is the clamped geometric count m(v) for the draw bits v at a depth
// with factor logQ = log(1−p(d)).
func (t UTSTree) draw(v uint32, logQ float64) int {
	m := int(math.Floor(logOneMinusU(v) / logQ))
	if m < 0 {
		m = 0
	}
	if m > t.MaxChildren {
		m = t.MaxChildren
	}
	return m
}

// drawRow is one depth's threshold row of the child-count draw (drawRows)
// and a start table into it: start[b] is the number of entries ≤ b<<24,
// capped at 255, so the count for draw bits whose top byte is b is at least
// start[b].
type drawRow struct {
	th    []uint32
	start [256]uint8
}

// drawRows builds the threshold rows of the child-count draw. Row d, for a
// depth below GenMx, holds T[k−1] = the least v in [0, 2³²) with m(v) ≥ k,
// for k = 1, 2, … up to MaxChildren or the first k no v reaches. m is
// non-decreasing in v, so m(v) is the number of entries of row d that are
// ≤ v, and a binary search finds each T. Near v = 2³² one step of v can
// raise m by more than one, so adjacent entries may be equal. The rows come
// from this architecture's math.Log, so they reproduce the float draw
// exactly here.
func (t UTSTree) drawRows() []drawRow {
	rows := make([]drawRow, t.GenMx)
	var th []uint32 // each row is built here, then copied to its exact size
	for d := range rows {
		r := &rows[d]
		logQ := t.logQ(d)
		if logQ == 0 {
			continue
		}
		th = th[:0]
		lo := uint64(0) // T[k] ≥ T[k−1], so each search starts at the last
		for k := 1; k <= t.MaxChildren; k++ {
			hi := uint64(1) << 32 // 2³²: no v reaches k
			for lo < hi {
				mid := (lo + hi) / 2
				if t.draw(uint32(mid), logQ) >= k {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if lo == 1<<32 {
				break
			}
			th = append(th, uint32(lo))
		}
		r.th = slices.Clone(th)
		k := 0
		for b := range r.start {
			for k < len(r.th) && r.th[k] <= uint32(b)<<24 {
				k++
			}
			r.start[b] = uint8(min(k, 255))
		}
	}
	return rows
}

// numChildren is the float draw read off the threshold rows (drawRows),
// with the same result: the count of row entries at or below the node's
// draw bits.
func numChildren(n UTSNode, rows []drawRow) int {
	return childCount(n.Depth, drawBits(n), rows)
}

// childCount is numChildren for a node at depth d whose draw bits are v. It
// scans the row from the start table's entry for v's top byte. A row holds
// about b(d)+1 entries spread over the 256 top bytes, so the scan nearly
// always stops at its first compare, a branch the CPU predicts; a scan from
// the row's start exits after a data-dependent number of compares and
// mispredicts about once a node.
func childCount(d int, v uint32, rows []drawRow) int {
	if d >= len(rows) {
		return 0
	}
	r := &rows[d]
	k := int(r.start[v>>24])
	for k < len(r.th) && r.th[k] <= v {
		k++
	}
	return k
}

// lanes is how many nodes a count walk hashes at once: the width of
// sha1x16.
const lanes = 16

// minLanes is the fewest nodes a count walk hands to sha1x16; fewer are
// hashed one at a time through childDesc. A sha1x16 call costs the same
// whatever the number of live lanes: 157-160 ns with its initial-value
// copy on a 2.1 GHz Xeon with AVX-512 and SHA-NI, where hashing one lane
// on its own (its words to bytes, a SHA-NI childDesc, the digest back to
// words) costs 74-84 ns. Two lanes cost 146-148 ns that way, three
// 217-225 ns, more than the call. CountSerial and the frontier walk both
// count a whole tree, whose lanes run short only in its first and last few
// rounds, so this decides a handful of rounds a walk.
const minLanes = 3

// walkRun is a run of children a count walk has yet to hash: children
// next, next+1, …, end−1 of the node whose descriptor's big-endian words
// are parent. root indexes walker.roots: the open frontier subtree the
// children belong to, or −1 above the frontier and in a walk without one.
type walkRun struct {
	parent    [5]uint32
	depth     int32 // the children's depth
	root      int32
	next, end uint32
}

// openRoot is a frontier node whose subtree a walk is still counting.
type openRoot struct {
	key   nodeKey
	count int64 // the subtree's nodes taken so far, the root included
	live  int32 // the subtree's runs on the stack and nodes in the lanes
}

// walker is a count walk's working memory: the stack of runs still to
// hash, sha1x16's operands and the open frontier subtrees. Walkers are
// reused (walkers), so a walk allocates only when its stack or its open
// subtrees outgrow every earlier walk's.
type walker struct {
	stack  []walkRun      // its whole capacity; a walk keeps its own top
	h      [5][16]uint32  // digest word j of lane k in h[j][k]
	w      [16][16]uint32 // message word t of lane k in w[t][k]
	depth  [lanes]int32   // the depth of the node in each lane
	root   [lanes]int32   // the open subtree of the node in each lane, or −1
	roots  []openRoot     // the open subtrees, and unused entries listed in free
	free   []int32
	done   []openRoot // finished subtrees still to store, fewer than memoBatch+lanes
	rounds int        // take calls in the last walk
}

// walkers holds the walkers no walk is using; walks on several goroutines
// at once each take their own.
var walkers struct {
	sync.Mutex
	free []*walker
}

// sha1IVLanes is the SHA-1 initial value in every lane.
var sha1IVLanes = func() (h [5][16]uint32) {
	iv := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	for j := range h {
		for k := range h[j] {
			h[j][k] = iv[j]
		}
	}
	return h
}()

func getWalker() *walker {
	walkers.Lock()
	defer walkers.Unlock()
	if n := len(walkers.free); n > 0 {
		w := walkers.free[n-1]
		walkers.free = walkers.free[:n-1]
		return w
	}
	// Every child block shares words 6-15: the 0x80 padding byte that ends
	// the 24-byte message, zeros, and its length in bits.
	w := new(walker)
	for k := 0; k < lanes; k++ {
		w.w[6][k] = 0x80000000
		w.w[15][k] = 24 * 8
	}
	return w
}

func putWalker(w *walker) {
	walkers.Lock()
	walkers.free = append(walkers.free, w)
	walkers.Unlock()
}

// countSubtree counts the nodes of the subtree under n using the threshold
// rows.
func countSubtree(n UTSNode, rows []drawRow) int64 {
	w := getWalker()
	defer putWalker(w)
	return w.walk(n, rows, nil, -1)
}

// walk counts the nodes of the subtree under n. It keeps each node's
// children that are still to hash as one run on a stack, takes up to lanes
// children at a time from the runs on top, hashes them together, and pushes
// their runs.
//
// Given a shapeState s, the walk also stores in s's memo the count of the
// subtree under every node at depth fd that has children: the frontier. A
// frontier node opens an entry of w.roots, which its subtree's runs and
// lanes name. Once the subtree has no run on the stack and no node in the
// lanes left to look at, the entry's count is final: it joins w.done,
// stored memoBatch at a time, and the entry is reused. So the walk holds
// one entry a subtree in progress, never one a frontier node, and its lanes
// take runs of every subtree, full in all but its first and last few
// rounds. A walk without a frontier passes s nil and fd −1.
func (w *walker) walk(n UTSNode, rows []drawRow, s *shapeState, fd int) int64 {
	w.rounds = 0
	w.roots, w.free = w.roots[:0], w.free[:0]
	stack, sp := w.stack, 0
	// n enters as if it had just been hashed in lane 0.
	h := &w.h
	for j := range h {
		h[j][0] = binary.BigEndian.Uint32(n.Desc[4*j:])
	}
	w.depth[0], w.root[0] = int32(n.Depth), -1
	count, k := int64(1), 1
	for {
		if len(stack)-sp < lanes { // room for a run from every lane
			stack = slices.Grow(stack[:sp], lanes)
			stack = stack[:cap(stack)]
		}
		for l := range k {
			l &= lanes - 1 // l < k ≤ lanes; the mask drops the bounds checks
			d := w.depth[l]
			nc := childCount(int(d), h[4][l], rows)
			keep := 0
			if nc > 0 {
				keep = 1
			}
			root := w.root[l]
			if root >= 0 {
				o := &w.roots[root]
				if o.live += int32(keep) - 1; o.live == 0 {
					w.done = append(w.done, *o)
					w.free = append(w.free, root)
				}
			} else if int(d) == fd && nc > 0 {
				key := nodeKey{depth: d}
				for j := range 5 {
					binary.BigEndian.PutUint32(key.desc[4*j:], h[j][l])
				}
				root = w.open(&key)
			}
			// The run is written at the top whether or not the node has
			// children, and kept only if it has: a branch on that would
			// mispredict about as often as not. Word by word: a [5]uint32
			// value would go through memory, and copying it whole reads
			// across the narrower stores that built it, which the CPU
			// cannot forward.
			r := &stack[sp]
			r.parent[0], r.parent[1], r.parent[2], r.parent[3], r.parent[4] = h[0][l], h[1][l], h[2][l], h[3][l], h[4][l]
			r.depth, r.root, r.next, r.end = d+1, root, 0, uint32(nc)
			sp += keep
		}
		if len(w.done) >= memoBatch || sp == 0 && len(w.done) > 0 {
			s.storeAll(w.done)
			w.done = w.done[:0]
		}
		if sp == 0 {
			break
		}
		sp, k = w.take(stack, sp)
		w.hash(k)
		count += int64(k)
	}
	w.stack = stack
	return count
}

// memoBatch is how many finished subtrees a frontier walk stores at once. A
// store misses the cache, as the table is megabytes wide and the keys land
// at random in it; stores run back to back overlap their misses, where one
// store between two rounds stalls the walk (T1XXL' at depth 11, 98,855
// subtrees: 40 → 34 ns a node, BenchmarkFrontierWalk/lanes).
const memoBatch = 64

// open starts an open subtree whose root has key k, counting the root and
// its one run, and returns its index in w.roots.
func (w *walker) open(k *nodeKey) int32 {
	var i int32
	if n := len(w.free); n > 0 {
		i, w.free = w.free[n-1], w.free[:n-1]
	} else {
		i = int32(len(w.roots))
		w.roots = append(w.roots, openRoot{})
	}
	w.roots[i] = openRoot{key: *k, count: 1, live: 1}
	return i
}

// take moves up to lanes children from the runs on top of the stack
// (stack[:sp]) into the lanes of w.w (words 0-5: parent ‖ i), w.depth and
// w.root, and returns the new top and the number of lanes filled. It reads
// each run's fields once and fills its lanes from them, and charges the
// lanes to the run's open subtree.
func (w *walker) take(stack []walkRun, sp int) (int, int) {
	w.rounds++
	m := &w.w
	k := 0
	for k < lanes && sp > 0 {
		r := &stack[sp-1]
		n := min(int(r.end-r.next), lanes-k)
		p0, p1, p2, p3, p4 := r.parent[0], r.parent[1], r.parent[2], r.parent[3], r.parent[4]
		d, root, i := r.depth, r.root, r.next
		for l := k; l < k+n; l++ {
			l := l & (lanes - 1) // l < k+n ≤ lanes; the mask drops the bounds checks
			m[0][l], m[1][l], m[2][l], m[3][l], m[4][l], m[5][l] = p0, p1, p2, p3, p4, i
			w.depth[l], w.root[l] = d, root
			i++
		}
		k += n
		r.next = i
		gone := 0
		if i == r.end {
			sp--
			gone = 1
		}
		if root >= 0 {
			o := &w.roots[root]
			o.count += int64(n)
			o.live += int32(n - gone)
		}
	}
	return sp, k
}

// hash writes the descriptors of the first k lanes of w.w into w.h: with
// sha1x16 where the CPU has it and k lanes are worth a call, otherwise one
// lane at a time through childDesc. Lanes past k hash whatever they last
// held.
func (w *walker) hash(k int) {
	if haveSHA1x16 && k >= minLanes {
		w.h = sha1IVLanes
		sha1x16(&w.h, &w.w)
		return
	}
	m := &w.w
	for l := range k {
		l &= lanes - 1
		var parent, child [20]byte
		for j := range 5 {
			binary.BigEndian.PutUint32(parent[4*j:], m[j][l])
		}
		childDesc(&child, &parent, m[5][l])
		for j := range w.h {
			w.h[j][l] = binary.BigEndian.Uint32(child[4*j:])
		}
	}
}

// CountSerial walks the tree depth-first without the runtime and returns
// the node count — ground truth for tests and the serial baseline for
// throughput normalization.
func (t UTSTree) CountSerial() int64 {
	return countSubtree(t.Root(), t.state().rows)
}

// shapeKey identifies a tree's generative parameters: everything that
// determines its shape and node count (Name and NodeWork do not).
type shapeKey struct {
	b0       float64
	genMx    int
	rootSeed int32
	maxCh    int
}

func (t UTSTree) shape() shapeKey {
	return shapeKey{t.B0, t.GenMx, t.RootSeed, t.MaxChildren}
}

// shapes holds one *shapeState per tree shape for the lifetime of the
// process. Worker-count sweeps run the identical tree many times, and every
// job would otherwise rebuild the rows and regenerate the millions of
// descriptors the previous job already hashed.
var shapes sync.Map // shapeKey -> *shapeState

// shapeState is what every walk of one tree shape shares: the draw's
// threshold rows, built once, and the serial-subtree counts the fork-join
// traversal aggregates below its sequential threshold. A count is a pure
// function of (shape, node), so memoizing it changes no simulated quantity.
// The memo is per shape because trees with equal root seeds (T1XXL' and
// T1WL') have equal descriptors at equal depths but different subtrees.
type shapeState struct {
	rows   []drawRow
	root   UTSNode
	fronts []sync.Once               // fronts[d] runs depth d's frontier walk
	walks  atomic.Int32              // frontier walks run: at most one a depth
	memo   atomic.Pointer[memoTable] // read without a lock; replaced, never resized in place
	mu     sync.Mutex                // serializes stores and growth
}

// memoTable is the subtree memo: an open-addressing table with linear
// probing, at most 3/4 full. A slot's key is written before its count, and
// the count is stored atomically, so a reader that loads a non-zero count
// sees the whole key. A slot, once filled, never changes, and a published
// table never grows: a larger copy replaces it.
type memoTable struct {
	slots []memoSlot // a power of two of them
	used  int        // filled slots; read and written under shapeState.mu
}

type memoSlot struct {
	count atomic.Int64 // 0 while the slot is free: every memoized subtree has ≥ 2 nodes
	key   nodeKey
}

// nodeKey names a node within one shape.
type nodeKey struct {
	desc  [20]byte
	depth int32
}

// home is the key's first probe slot in a table of mask+1 slots. The
// descriptor is a SHA-1 digest, so its first bytes are already uniform.
func (k *nodeKey) home(mask uint64) uint64 {
	return (binary.LittleEndian.Uint64(k.desc[:8]) + uint64(k.depth)) & mask
}

// newShapeState builds the state of t's shape. It walks nothing: the memo
// fills on a traversal's first serial visit.
func newShapeState(t UTSTree) *shapeState {
	s := &shapeState{rows: t.drawRows(), root: t.Root(), fronts: make([]sync.Once, t.GenMx)}
	s.memo.Store(&memoTable{slots: make([]memoSlot, 64)})
	return s
}

// state returns the tree's shapeState, building it on the shape's first
// use. Two goroutines that both build one keep the first that was stored.
func (t UTSTree) state() *shapeState {
	k := t.shape()
	if s, ok := shapes.Load(k); ok {
		return s.(*shapeState)
	}
	s, _ := shapes.LoadOrStore(k, newShapeState(t))
	return s.(*shapeState)
}

// subtree returns the node count of the subtree under n: 1 for a leaf,
// otherwise memoized. A hit takes no lock. A miss walks n's depth as the
// frontier (walkFrontier), which memoizes n's subtree with all the others
// at that depth.
func (s *shapeState) subtree(n UTSNode) int64 {
	if childCount(n.Depth, drawBits(n), s.rows) == 0 {
		return 1
	}
	k := nodeKey{n.Desc, int32(n.Depth)}
	if count := s.memo.Load().lookup(&k); count != 0 {
		return count
	}
	s.walkFrontier(n.Depth)
	if count := s.memo.Load().lookup(&k); count != 0 {
		return count
	}
	panic("workload: a UTS node with children is missing from its depth's frontier walk: it is not a node of the tree")
}

// walkFrontier walks the whole tree once, the first time it is called for
// depth d, and memoizes the subtree under every node at depth d that has
// children. A traversal's serial visits are all at one depth, so the one
// walk answers all of them, with the lanes full where a walk of each
// subtree on its own would leave the lanes of its last rounds idle. A
// caller that comes while the walk runs waits for it.
func (s *shapeState) walkFrontier(d int) {
	s.fronts[d].Do(func() {
		s.walks.Add(1)
		w := getWalker()
		defer putWalker(w)
		w.walk(s.root, s.rows, s, d)
	})
}

// lookup returns k's count, or 0 if the table does not hold k.
func (t *memoTable) lookup(k *nodeKey) int64 {
	mask := uint64(len(t.slots) - 1)
	for i := k.home(mask); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		count := sl.count.Load()
		if count == 0 || sl.key == *k {
			return count
		}
	}
}

// storeAll records the count of each finished subtree. If one more key
// would fill more than 3/4 of the table, it fills a copy twice the size and
// publishes that.
func (s *shapeState) storeAll(done []openRoot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.memo.Load()
	for i := range done {
		if 4*(t.used+1) > 3*len(t.slots) {
			g := &memoTable{slots: make([]memoSlot, 2*len(t.slots))}
			for j := range t.slots {
				if sl := &t.slots[j]; sl.count.Load() != 0 {
					g.put(&sl.key, sl.count.Load())
				}
			}
			s.memo.Store(g)
			t = g
		}
		t.put(&done[i].key, done[i].count)
	}
}

// put fills k's slot, unless k is already there. The caller holds
// shapeState.mu.
func (t *memoTable) put(k *nodeKey, count int64) {
	mask := uint64(len(t.slots) - 1)
	for i := k.home(mask); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		switch {
		case sl.count.Load() == 0:
			sl.key = *k
			sl.count.Store(count)
			t.used++
			return
		case sl.key == *k:
			return
		}
	}
}

// SerialTime returns the modelled single-core execution time of the tree on
// the reference machine: nodes × NodeWork (machine speed scaling is applied
// by Ctx.Compute at run time).
func (t UTSTree) SerialTime(nodes int64) sim.Time {
	return sim.Time(nodes) * t.NodeWork
}

// UTS returns the root task of the fork-join UTS traversal: the natural
// recursive parallelization ("the recursive fork-join constructs ...
// straightforwardly parallelize the tree traversal", §V-C). Each tree node
// is one task; the return value is the subtree node count.
//
// seqThreshold = d makes every node with at most d levels left below it
// (GenMx − depth ≤ d) count its whole subtree serially inside the task that
// reached it, charging count × NodeWork in one Compute call, instead of
// spawning a task per child. d = 0 spawns a task for every node, as the
// paper's implementation does; d > 0 trades scheduling fidelity for
// simulation speed at very large core counts.
func UTS(t UTSTree, seqThreshold int) core.TaskFunc {
	return (&utsTraversal{t: t, s: t.state(), seq: seqThreshold}).root
}

// utsTraversal is what every task of one UTS traversal shares: the tree, its
// shape's state (threshold rows and subtree memo) and the sequential
// threshold.
type utsTraversal struct {
	t   UTSTree
	s   *shapeState
	seq int
}

// root is the traversal's root task.
func (u *utsTraversal) root(c *core.Ctx) []byte {
	return core.Int64Ret(u.visit(c, u.t.Root()))
}

func (u *utsTraversal) visit(c *core.Ctx, n UTSNode) int64 {
	t := u.t
	if t.GenMx-n.Depth <= u.seq {
		return u.visitSerial(c, n)
	}
	nc := numChildren(n, u.s.rows)
	c.Compute(t.NodeWork) // hash generation + traversal bookkeeping
	if nc == 0 {
		return 1
	}
	hs := make([]core.Handle, 0, nc-1)
	for i := 0; i < nc-1; i++ {
		child := t.Child(n, i)
		hs = append(hs, c.Spawn(func(c *core.Ctx) []byte {
			return core.Int64Ret(u.visit(c, child))
		}))
	}
	count := 1 + u.visit(c, t.Child(n, nc-1))
	for _, h := range hs {
		count += h.JoinInt64(c)
	}
	return count
}

// visitSerial counts a whole subtree inside the current task, charging the
// aggregate node work in one Compute call. The count comes from the shape's
// memo, which the traversal's first serial visit fills for every subtree at
// this depth (walkFrontier): within one sweep every job counts the same
// serial subtrees, and on a steal the thief's recount of a counted subtree
// is pure recomputation.
func (u *utsTraversal) visitSerial(c *core.Ctx, n UTSNode) int64 {
	count := u.s.subtree(n)
	c.Compute(sim.Time(count) * u.t.NodeWork)
	return count
}
