package workload

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
	"slices"
	"sync"

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

// drawRows builds the threshold rows of the child-count draw. Row d, for a
// depth below GenMx, holds T[k−1] = the least v in [0, 2³²) with m(v) ≥ k,
// for k = 1, 2, … up to MaxChildren or the first k no v reaches. m is
// non-decreasing in v, so m(v) is the number of entries of row d that are
// ≤ v, and a binary search finds each T. Near v = 2³² one step of v can
// raise m by more than one, so adjacent entries may be equal. The rows come
// from this architecture's math.Log, so they reproduce the float draw
// exactly here.
func (t UTSTree) drawRows() [][]uint32 {
	rows := make([][]uint32, t.GenMx)
	for d := range rows {
		logQ := t.logQ(d)
		if logQ == 0 {
			continue
		}
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
			rows[d] = append(rows[d], uint32(lo))
		}
	}
	return rows
}

// numChildren is the float draw read off the threshold rows (drawRows),
// with the same result: the count of row entries at or below the node's
// draw bits.
func numChildren(n UTSNode, rows [][]uint32) int {
	return childCount(n.Depth, drawBits(n), rows)
}

// childCount is numChildren for a node at depth d whose draw bits are v.
// A row is non-decreasing and about b(d)+1 entries are compared.
func childCount(d int, v uint32, rows [][]uint32) int {
	if d >= len(rows) {
		return 0
	}
	row := rows[d]
	k := 0
	for k < len(row) && row[k] <= v {
		k++
	}
	return k
}

// lanes is how many nodes a count walk hashes at once: the width of
// sha1x16.
const lanes = 16

// minLanes is the fewest nodes a count walk hands to sha1x16; fewer are
// hashed one at a time through childDesc. A sha1x16 call costs the same
// whatever the number of live lanes: 160-172 ns with its initial-value
// copy on a 2.1 GHz Xeon with AVX-512 and SHA-NI, where one SHA-NI
// childDesc of an independent node is 63-68 ns. Two nodes cost about
// 130 ns one at a time, three about 195 ns, more than the call.
const minLanes = 3

// walkRun is a run of children a count walk has yet to hash: children
// next, next+1, …, end−1 of the node whose descriptor's big-endian words
// are parent.
type walkRun struct {
	parent    [5]uint32
	depth     int32 // the children's depth
	next, end uint32
}

// walker is a count walk's working memory: the stack of runs still to
// hash, and sha1x16's operands. Walkers are reused (walkers), so a walk
// allocates only when its stack outgrows every earlier walk's.
type walker struct {
	stack []walkRun
	h     [5][16]uint32  // digest word j of lane k in h[j][k]
	w     [16][16]uint32 // message word t of lane k in w[t][k]
	depth [lanes]int32   // the depth of the node in each lane
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
// rows. The walk keeps each node's children that are still to hash as one
// run on a stack, takes up to lanes children at a time from the runs on
// top, hashes them together, and pushes their runs.
func countSubtree(n UTSNode, rows [][]uint32) int64 {
	w := getWalker()
	defer putWalker(w)
	stack := w.stack[:0]
	if nc := childCount(n.Depth, drawBits(n), rows); nc > 0 {
		var r *walkRun
		stack, r = pushRun(stack, int32(n.Depth+1), nc)
		for j := range r.parent {
			r.parent[j] = binary.BigEndian.Uint32(n.Desc[4*j:])
		}
	}
	count := int64(1)
	h := &w.h
	for len(stack) > 0 {
		var k int
		stack, k = w.take(stack)
		w.hash(k)
		count += int64(k)
		for l := range k {
			l &= lanes - 1 // l < k ≤ lanes; the mask drops the bounds checks
			nc := childCount(int(w.depth[l]), h[4][l], rows)
			if nc == 0 {
				continue
			}
			var r *walkRun
			stack, r = pushRun(stack, w.depth[l]+1, nc)
			// Word by word: a [5]uint32 value would go through memory, and
			// copying it whole reads across the narrower stores that built
			// it, which the CPU cannot forward.
			r.parent[0], r.parent[1], r.parent[2], r.parent[3], r.parent[4] = h[0][l], h[1][l], h[2][l], h[3][l], h[4][l]
		}
	}
	w.stack = stack
	return count
}

// pushRun pushes the run of nc children at the given depth and returns the
// stack and the run, whose parent the caller fills in.
func pushRun(stack []walkRun, depth int32, nc int) ([]walkRun, *walkRun) {
	stack = slices.Grow(stack, 1)
	stack = stack[:len(stack)+1]
	r := &stack[len(stack)-1]
	r.depth, r.next, r.end = depth, 0, uint32(nc)
	return stack, r
}

// take moves up to lanes children from the runs on top of the stack into
// the lanes of w.w (words 0-5: parent ‖ i) and w.depth, and returns the
// stack without the runs it used up and the number of lanes filled.
func (w *walker) take(stack []walkRun) ([]walkRun, int) {
	m := &w.w
	k := 0
	for ; k < lanes && len(stack) > 0; k++ {
		r := &stack[len(stack)-1]
		m[0][k], m[1][k], m[2][k], m[3][k], m[4][k] = r.parent[0], r.parent[1], r.parent[2], r.parent[3], r.parent[4]
		m[5][k] = r.next
		w.depth[k] = r.depth
		r.next++
		if r.next == r.end {
			stack = stack[:len(stack)-1]
		}
	}
	return stack, k
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
	rows [][]uint32
	mu   sync.Mutex // guards sub; it is held only around map operations
	sub  map[nodeKey]int64
}

// nodeKey names a node within one shape.
type nodeKey struct {
	desc  [20]byte
	depth int32
}

// state returns the tree's shapeState, building it on the shape's first
// use. Two goroutines that both build one keep the first that was stored.
func (t UTSTree) state() *shapeState {
	k := t.shape()
	if s, ok := shapes.Load(k); ok {
		return s.(*shapeState)
	}
	s, _ := shapes.LoadOrStore(k, &shapeState{rows: t.drawRows(), sub: make(map[nodeKey]int64)})
	return s.(*shapeState)
}

// subtree returns the node count of the subtree under n: memoized, or
// walked and then recorded. The walk runs unlocked, so two goroutines that
// miss on one node both walk it and store the same count.
func (s *shapeState) subtree(n UTSNode) int64 {
	k := nodeKey{n.Desc, int32(n.Depth)}
	s.mu.Lock()
	count, ok := s.sub[k]
	s.mu.Unlock()
	if !ok {
		count = countSubtree(n, s.rows)
		s.mu.Lock()
		s.sub[k] = count
		s.mu.Unlock()
	}
	return count
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
// memo: within one sweep the same serial subtrees are walked by every job,
// and on a steal the thief's recount of an already-walked subtree is pure
// recomputation.
func (u *utsTraversal) visitSerial(c *core.Ctx, n UTSNode) int64 {
	count := u.s.subtree(n)
	c.Compute(sim.Time(count) * u.t.NodeWork)
	return count
}
