// Package pgas implements a Partitioned Global Address Space substrate over
// the simulated RDMA fabric: distributed global arrays readable and
// writable by any task with one-sided operations.
//
// The paper's conclusion (§VII) notes that its evaluation deliberately
// avoided global memory — "data are only exchanged via arguments or return
// values of tasks" — and that "efficient support for global heaps, such as
// PGAS or DSM, remains for future work." This package supplies that
// substrate so applications that need shared data (arrays, matrices,
// lookup tables) can run on the continuation-stealing runtime: a migrated
// task keeps working because the global address it holds is
// location-transparent — exactly the property task migration needs.
//
// Arrays are block-distributed: element i lives on rank i/blockElems in
// that rank's registered segment. Accesses from the owning rank are free
// (local); remote accesses are charged one one-sided operation per touched
// rank, with range operations coalescing contiguous elements.
package pgas

import (
	"encoding/binary"
	"fmt"

	"contsteal/internal/core"
	"contsteal/internal/rdma"
)

// Array is a block-distributed global array of fixed-size elements.
type Array struct {
	fab        *rdma.Fabric
	elemSize   int
	n          int
	blockElems int
	bases      []rdma.Addr // per-rank base of the local block
}

// NewArray allocates a global array of n elements of elemSize bytes,
// block-distributed over all ranks of the runtime (rank r owns elements
// [r*ceil(n/P), (r+1)*ceil(n/P))).
func NewArray(rt *core.Runtime, n, elemSize int) *Array {
	if n <= 0 || elemSize <= 0 {
		panic("pgas: array dimensions must be positive")
	}
	fab := rt.Fabric()
	ranks := fab.Ranks()
	blockElems := (n + ranks - 1) / ranks
	a := &Array{
		fab:        fab,
		elemSize:   elemSize,
		n:          n,
		blockElems: blockElems,
		bases:      make([]rdma.Addr, ranks),
	}
	for r := 0; r < ranks; r++ {
		lo := r * blockElems
		if lo >= n {
			break
		}
		hi := lo + blockElems
		if hi > n {
			hi = n
		}
		a.bases[r] = fab.Alloc(r, (hi-lo)*elemSize)
	}
	return a
}

// Len returns the number of elements.
func (a *Array) Len() int { return a.n }

// OwnerOf returns the rank owning element i.
func (a *Array) OwnerOf(i int) int {
	a.check(i)
	return i / a.blockElems
}

// LocalRange returns the element range [lo, hi) owned by rank — useful for
// owner-computes decompositions.
func (a *Array) LocalRange(rank int) (lo, hi int) {
	lo = rank * a.blockElems
	hi = lo + a.blockElems
	if lo > a.n {
		lo = a.n
	}
	if hi > a.n {
		hi = a.n
	}
	return
}

func (a *Array) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("pgas: index %d out of range [0,%d)", i, a.n))
	}
}

// loc returns the fabric location of elements [i, i+count) — the caller
// guarantees they live on one rank.
func (a *Array) loc(i, count int) rdma.Loc {
	r := i / a.blockElems
	off := (i - r*a.blockElems) * a.elemSize
	return rdma.Loc{
		Rank: int32(r),
		Addr: a.bases[r] + rdma.Addr(off),
		Size: int32(count * a.elemSize),
	}
}

// Read copies element i into buf (elemSize bytes) on behalf of the task.
func (a *Array) Read(c *core.Ctx, i int, buf []byte) {
	a.check(i)
	p, rank := c.Access()
	a.fab.Get(p, rank, a.loc(i, 1), buf[:a.elemSize])
}

// Write stores buf (elemSize bytes) into element i.
func (a *Array) Write(c *core.Ctx, i int, buf []byte) {
	a.check(i)
	p, rank := c.Access()
	a.fab.Put(p, rank, a.loc(i, 1), buf[:a.elemSize])
}

// ReadRange copies elements [lo, hi) into buf, coalescing one one-sided
// get per touched rank.
func (a *Array) ReadRange(c *core.Ctx, lo, hi int, buf []byte) {
	a.rangeOp(c, lo, hi, buf, false)
}

// WriteRange stores buf into elements [lo, hi), coalescing one one-sided
// put per touched rank.
func (a *Array) WriteRange(c *core.Ctx, lo, hi int, buf []byte) {
	a.rangeOp(c, lo, hi, buf, true)
}

func (a *Array) rangeOp(c *core.Ctx, lo, hi int, buf []byte, write bool) {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("pgas: range [%d,%d) out of bounds [0,%d)", lo, hi, a.n))
	}
	if len(buf) < (hi-lo)*a.elemSize {
		panic("pgas: buffer too small for range")
	}
	p, rank := c.Access()
	for i := lo; i < hi; {
		blockEnd := (i/a.blockElems + 1) * a.blockElems
		if blockEnd > hi {
			blockEnd = hi
		}
		count := blockEnd - i
		chunk := buf[(i-lo)*a.elemSize : (blockEnd-lo)*a.elemSize]
		if write {
			a.fab.Put(p, rank, a.loc(i, count), chunk)
		} else {
			a.fab.Get(p, rank, a.loc(i, count), chunk)
		}
		i = blockEnd
	}
}

// Int64Array is a convenience wrapper for 8-byte integer elements.
type Int64Array struct{ *Array }

// NewInt64Array allocates a block-distributed []int64 of length n.
func NewInt64Array(rt *core.Runtime, n int) Int64Array {
	return Int64Array{NewArray(rt, n, 8)}
}

// Get returns element i.
func (a Int64Array) Get(c *core.Ctx, i int) int64 {
	var buf [8]byte
	a.Read(c, i, buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// Set stores v into element i.
func (a Int64Array) Set(c *core.Ctx, i int, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	a.Write(c, i, buf[:])
}

// FetchAdd atomically adds delta to element i and returns the prior value
// (a remote atomic on the owner's memory).
func (a Int64Array) FetchAdd(c *core.Ctx, i int, delta int64) int64 {
	a.check(i)
	p, rank := c.Access()
	return a.fab.FetchAdd(p, rank, a.loc(i, 1), delta)
}

// GetRange reads elements [lo, hi) into a fresh slice.
func (a Int64Array) GetRange(c *core.Ctx, lo, hi int) []int64 {
	buf := make([]byte, (hi-lo)*8)
	a.ReadRange(c, lo, hi, buf)
	out := make([]int64, hi-lo)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

// SetRange writes vs into elements [lo, lo+len(vs)).
func (a Int64Array) SetRange(c *core.Ctx, lo int, vs []int64) {
	buf := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	a.WriteRange(c, lo, lo+len(vs), buf)
}
