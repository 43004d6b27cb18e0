package workload

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
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

// NumChildren samples the geometric child count of a node from its
// descriptor: u uniform in [0,1) from the hash, p = 1/(1+b(d)),
// m = ⌊log(1−u)/log(1−p)⌋ — the standard UTS construction.
func (t UTSTree) NumChildren(n UTSNode) int {
	if n.Depth >= t.GenMx {
		return 0
	}
	b := t.B0
	if n.Depth > 0 {
		b = t.B0 * (1.0 - float64(n.Depth)/float64(t.GenMx))
	}
	if b <= 0 {
		return 0
	}
	p := 1.0 / (1.0 + b)
	return t.sample(n, math.Log(1-p))
}

// sample finishes the geometric draw given the node and the depth factor
// log(1−p(d)).
func (t UTSTree) sample(n UTSNode, logP float64) int {
	u := float64(binary.BigEndian.Uint32(n.Desc[16:20])) / float64(1<<32)
	m := int(math.Floor(math.Log(1-u) / logP))
	if m < 0 {
		m = 0
	}
	if m > t.MaxChildren {
		m = t.MaxChildren
	}
	return m
}

// logTable precomputes log(1−p(d)) for every depth below GenMx. p depends
// only on the depth, so recomputing math.Log(1−p) per node in a serial walk
// is wasted host work; entry d is 0 (a value log(1−p) can never take) when
// b(d) ≤ 0 and the node has no children. The table holds exactly the values
// NumChildren computes, so table-driven walks are bit-identical.
func (t UTSTree) logTable() []float64 {
	tbl := make([]float64, t.GenMx)
	for d := range tbl {
		b := t.B0
		if d > 0 {
			b = t.B0 * (1.0 - float64(d)/float64(t.GenMx))
		}
		if b <= 0 {
			continue
		}
		tbl[d] = math.Log(1 - 1.0/(1.0+b))
	}
	return tbl
}

// numChildren is NumChildren read off the depth table tbl (logTable), with
// the same result: the child count of every traversal goes through it.
func (t UTSTree) numChildren(n UTSNode, tbl []float64) int {
	if n.Depth >= t.GenMx || tbl[n.Depth] == 0 {
		return 0
	}
	return t.sample(n, tbl[n.Depth])
}

// countWalk counts the subtree under n using the precomputed depth table.
func (t UTSTree) countWalk(n UTSNode, tbl []float64) int64 {
	count := int64(1)
	nc := t.numChildren(n, tbl)
	for i := 0; i < nc; i++ {
		count += t.countWalk(t.Child(n, i), tbl)
	}
	return count
}

// CountSerial walks the tree depth-first without the runtime and returns
// the node count — ground truth for tests and the serial baseline for
// throughput normalization.
func (t UTSTree) CountSerial() int64 {
	return t.countWalk(t.Root(), t.logTable())
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

// countMemo caches whole-tree node counts per shape, and subtreeMemo caches
// the serial-subtree counts that the fork-join traversal aggregates below
// its sequential threshold. Worker-count sweeps run the identical tree many
// times, and every job used to regenerate millions of SHA-1 descriptors the
// previous job had already produced; the counts are pure functions of
// (shape, node), so memoizing them changes no simulated quantity. Both maps
// are safe under the parallel sweep pool: concurrent stores for the same
// key write the same value.
var (
	countMemo   sync.Map // shapeKey -> int64
	subtreeMemo sync.Map // subtreeKey -> int64
)

type subtreeKey struct {
	shape shapeKey
	desc  [20]byte
	depth int
}

// Count returns the tree's node count, memoized per shape for the lifetime
// of the process.
func (t UTSTree) Count() int64 {
	k := t.shape()
	if v, ok := countMemo.Load(k); ok {
		return v.(int64)
	}
	n := t.CountSerial()
	countMemo.Store(k, n)
	return n
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
	u := &utsTraversal{t: t, tbl: t.logTable(), seq: seqThreshold}
	return func(c *core.Ctx) []byte {
		return core.Int64Ret(u.visit(c, t.Root()))
	}
}

// utsTraversal is what every task of one UTS traversal shares: the tree, its
// depth table (built once, read by every serial subtree walk) and the
// sequential threshold.
type utsTraversal struct {
	t   UTSTree
	tbl []float64
	seq int
}

func (u *utsTraversal) visit(c *core.Ctx, n UTSNode) int64 {
	t := u.t
	if t.GenMx-n.Depth <= u.seq {
		return u.visitSerial(c, n)
	}
	nc := t.numChildren(n, u.tbl)
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
// aggregate node work in one Compute call. The count is memoized per (shape,
// node): within one sweep the same serial subtrees are walked by every job,
// and on a steal the thief's recount of an already-walked subtree is pure
// recomputation.
func (u *utsTraversal) visitSerial(c *core.Ctx, n UTSNode) int64 {
	t := u.t
	k := subtreeKey{t.shape(), n.Desc, n.Depth}
	var count int64
	if v, ok := subtreeMemo.Load(k); ok {
		count = v.(int64)
	} else {
		count = t.countWalk(n, u.tbl)
		subtreeMemo.Store(k, count)
	}
	c.Compute(sim.Time(count) * t.NodeWork)
	return count
}
