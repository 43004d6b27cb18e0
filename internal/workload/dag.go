package workload

import (
	"fmt"

	"contsteal/internal/core"
	"contsteal/internal/sim"
)

// Task-graph (dataflow) workload: seeded future DAGs, promoting the
// examples/wavefront dependency pattern into a first-class experiment
// workload. Two shapes:
//
//   - "wavefront": an N×N grid where cell (i,j) consumes its top and left
//     neighbours — the dependency pattern of the paper's LCS benchmark
//     (Fig. 10), expressed directly with multi-consumer futures. The one
//     sink is the bottom-right cell.
//   - "stencil": a Steps×N iterated 1-D stencil where cell (t,i) consumes
//     (t-1, i-1..i+1) clamped at the boundaries — the classic 3-point
//     stencil over time, each producer feeding up to three consumers. The
//     sinks are the final row.
//
// Both shapes are one description (deps): each cell's dependency list in
// join order, from which one spawn loop (Task) and one serial oracle
// (SerialChecksum) derive consumer counts, values and the checksum — the
// sum of the sinks.
//
// Per-cell work and value constants come from a splitmix64 hash of
// (seed, i, j) — a pure function of the cell's coordinates, not an RNG
// sequence — so every execution order (any runtime policy, any steal
// policy, the serial oracle) sees identical cells, and checksums are
// comparable across all of them.

// dagPrime is the checksum modulus (same prime as examples/wavefront).
const dagPrime = 1000003

// DAGShapes lists the valid DAGParams.Shape values.
func DAGShapes() []string { return []string{"wavefront", "stencil"} }

// DAGParams parameterizes one dag workload instance. The zero value is
// completed by defaults(): shape wavefront, N 12, Steps 8, work uniform in
// [5µs, 30µs].
type DAGParams struct {
	// Shape is "wavefront" (N×N grid) or "stencil" (Steps rows of N).
	Shape string
	// N is the grid width: wavefront has N×N cells, stencil N per row.
	N int
	// Steps is the number of stencil iterations (rows beyond the seeded
	// initial row); ignored by wavefront.
	Steps int
	// Seed drives the per-cell work durations and value constants.
	Seed int64
	// MinWork/MaxWork bound the per-cell compute duration; each cell draws
	// uniformly from [MinWork, MaxWork] by hash.
	MinWork, MaxWork sim.Time
	// Nest is the depth of the binary fork-join tree each cell burns its
	// work through (2^Nest leaf chunks): DAG nodes are themselves small
	// parallel kernels. Nesting is what gives multi-entry steals something
	// to take — a flat Compute call keeps every continuation deque at depth
	// ≤ 1, making steal-half indistinguishable from steal-one. The zero
	// value defaults to 3; a negative value disables nesting.
	Nest int
}

func (d *DAGParams) defaults() {
	if d.Shape == "" {
		d.Shape = "wavefront"
	}
	if d.N <= 0 {
		d.N = 12
	}
	if d.Steps <= 0 {
		d.Steps = 8
	}
	if d.MinWork <= 0 {
		d.MinWork = 5 * sim.Microsecond
	}
	if d.MaxWork < d.MinWork {
		d.MaxWork = 30 * sim.Microsecond
		if d.MaxWork < d.MinWork {
			d.MaxWork = d.MinWork
		}
	}
	if d.Nest == 0 {
		d.Nest = 3
	}
	if d.Nest < 0 {
		d.Nest = 0
	}
}

// Validate reports whether the shape name is known.
func (d DAGParams) Validate() error {
	switch d.Shape {
	case "", "wavefront", "stencil":
		return nil
	}
	return fmt.Errorf("workload: unknown dag shape %q (want wavefront or stencil)", d.Shape)
}

// Cells returns the number of future tasks the DAG spawns.
func (d DAGParams) Cells() int {
	d.defaults()
	if d.Shape == "stencil" {
		return (d.Steps + 1) * d.N
	}
	return d.N * d.N
}

// T1 returns the total per-cell work of the DAG — the serial compute time
// excluding runtime overheads, for efficiency normalization.
func (d DAGParams) T1() sim.Time {
	d.defaults()
	var total sim.Time
	for k := range d.Cells() {
		w, _ := d.cell(k)
		total += w
	}
	return total
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// cell returns the seeded work duration and value constant of cell k, at
// (i, j) = (row k/N, column k%N) — a pure function of (Seed, i, j).
func (d DAGParams) cell(k int) (work sim.Time, val int64) {
	i, j := k/d.N, k%d.N
	h := splitmix64(uint64(d.Seed) ^ splitmix64(uint64(i)<<32|uint64(uint32(j))))
	span := uint64(d.MaxWork-d.MinWork) + 1
	work = d.MinWork + sim.Time(h%span)
	val = int64((h >> 16) % dagPrime)
	return work, val
}

// cellCompute burns a cell's work as a binary fork-join tree of the given
// depth, halving the budget at each level. The chunks sum exactly to work,
// so T1 is independent of nesting; what nesting adds is continuation-deque
// depth during cell execution (spawned halves stack up like fib), which is
// where batch steals find their entries.
func cellCompute(c *core.Ctx, work sim.Time, depth int) {
	if depth <= 0 || work < 2 {
		c.Compute(work)
		return
	}
	half := work / 2
	h := c.Spawn(func(c *core.Ctx) []byte {
		cellCompute(c, work-half, depth-1)
		return core.Int64Ret(0)
	})
	cellCompute(c, half, depth-1)
	h.JoinInt64(c)
}

// deps appends to buf the indices of the cells cell k joins, in join order.
// Both shapes are rows of N cells (N rows of the wavefront, Steps+1 stencil
// steps), and cell k is (row k/N, column k%N), so index order is the
// row-major order cells are spawned in: wavefront cells join [top, left],
// stencil cells the clamped (t-1, i-1..i+1).
func (d *DAGParams) deps(k int, buf []int) []int {
	i, j := k/d.N, k%d.N
	switch {
	case d.Shape == "stencil" && i > 0:
		for c := max(j-1, 0); c <= min(j+1, d.N-1); c++ {
			buf = append(buf, k-d.N-j+c)
		}
	case d.Shape != "stencil":
		if i > 0 {
			buf = append(buf, k-d.N)
		}
		if j > 0 {
			buf = append(buf, k-1)
		}
	}
	return buf
}

// consumers completes d's defaults, validates the shape and counts, for
// every cell, the cells that join it — 0 for a sink, which the root joins
// instead. With deps it is the one description of both shapes that Task and
// SerialChecksum share.
func (d *DAGParams) consumers() []int32 {
	d.defaults()
	if err := d.Validate(); err != nil {
		panic(err)
	}
	n := make([]int32, d.Cells())
	var buf [3]int
	for k := range n {
		for _, dep := range d.deps(k, buf[:0]) {
			n[dep]++
		}
	}
	return n
}

// Task returns the root TaskFunc building and joining the whole DAG: it
// spawns every cell as a future in index order, each joining its
// dependencies in order before computing, then joins the sinks in order. The
// root's return value is the checksum, equal to SerialChecksum() under every
// policy.
func (d DAGParams) Task() core.TaskFunc {
	consumers := d.consumers()
	return func(c *core.Ctx) []byte {
		h := make([]core.Handle, len(consumers))
		for k, n := range consumers {
			h[k] = c.SpawnFuture(max(int(n), 1), func(c *core.Ctx) []byte {
				var sum int64
				var buf [3]int
				for _, dep := range d.deps(k, buf[:0]) {
					sum += h[dep].JoinInt64(c)
				}
				work, val := d.cell(k)
				cellCompute(c, work, d.Nest)
				return core.Int64Ret((sum + val) % dagPrime)
			})
		}
		var sum int64
		for k, n := range consumers {
			if n == 0 {
				sum = (sum + h[k].JoinInt64(c)) % dagPrime
			}
		}
		return core.Int64Ret(sum)
	}
}

// SerialChecksum computes the DAG's checksum single-threadedly in
// topological order — the oracle every runtime × steal-policy execution
// must match: a cell's value is its dependencies' values plus its own
// constant, mod dagPrime, and the checksum is the sinks' sum, mod dagPrime.
func (d DAGParams) SerialChecksum() int64 {
	consumers := d.consumers()
	v := make([]int64, len(consumers))
	var sum int64
	var buf [3]int
	for k, n := range consumers {
		for _, dep := range d.deps(k, buf[:0]) {
			v[k] += v[dep]
		}
		_, val := d.cell(k)
		v[k] = (v[k] + val) % dagPrime
		if n == 0 {
			sum = (sum + v[k]) % dagPrime
		}
	}
	return sum
}
