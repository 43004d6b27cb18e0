// Package topo defines machine models: the topology and cost parameters of
// the simulated clusters on which the runtime is evaluated.
//
// A Machine bundles every latency/bandwidth/overhead constant the simulator
// charges, so that an experiment can be re-run "on" a different machine by
// swapping one value. Two presets mirror the paper's evaluation platforms:
//
//   - ITOA: Intel Xeon Skylake-SP nodes (36 cores) with InfiniBand EDR,
//     modelled after the ITO supercomputer (subsystem A) at Kyushu University.
//   - WisteriaO: Fujitsu A64FX nodes (48 cores) with Tofu Interconnect-D,
//     modelled after Wisteria/BDEC-01 (Odyssey) at the University of Tokyo.
//
// The absolute values are calibrated so that end-to-end simulated magnitudes
// (e.g. successful-steal latency ≈ 28 µs on ITO-A-like, ≈ 20 µs on
// WISTERIA-O-like) match Table II of the paper; see DESIGN.md §4.
package topo

import (
	"math/rand"

	"contsteal/internal/sim"
)

// Machine describes a simulated cluster: its node topology and the cost of
// every primitive operation the runtime performs on it.
type Machine struct {
	// Name identifies the preset (e.g. "itoa").
	Name string

	// CoresPerNode is the number of worker ranks placed on each node.
	// Communication between ranks on the same node uses intra-node costs.
	CoresPerNode int

	// InterLatency is the base latency of a one-sided operation (put/get)
	// between ranks on different nodes.
	InterLatency sim.Time
	// IntraLatency is the base latency of a one-sided operation between
	// distinct ranks on the same node (MPI shared-memory window).
	IntraLatency sim.Time
	// AtomicExtra is added to the base latency for remote atomic operations
	// (fetch-and-add, compare-and-swap).
	AtomicExtra sim.Time
	// NetBytesPerNS is the network bandwidth in bytes per nanosecond
	// (1 GB/s = 1 byte/ns); it converts payload size into transfer time.
	NetBytesPerNS float64

	// MemBytesPerNS is the local memory-copy bandwidth in bytes per
	// nanosecond, charged for stack evacuation/restore within a rank.
	MemBytesPerNS float64

	// LocalOp is the cost of a local task-queue push/pop or local atomic.
	LocalOp sim.Time
	// SpawnCost is the bookkeeping overhead of creating or completing a
	// task (thread-entry allocation aside).
	SpawnCost sim.Time
	// CtxSwitch is the cost of a user-level context switch (suspending a
	// fully fledged thread, resuming a saved continuation).
	CtxSwitch sim.Time
	// AllocCost is the cost of a local heap allocation from the
	// RDMA-registered pool.
	AllocCost sim.Time

	// SpeedFactor scales single-core compute time relative to the ITO-A
	// reference (>1 means slower). The UTS per-node work and the LCS block
	// kernel are multiplied by this.
	SpeedFactor float64

	// Perturb, when non-nil and Active, injects deterministic perturbations
	// (latency jitter, stragglers, degraded links, message drops) into the
	// op-issue paths that consult it; see perturb.go. Nil means the machine
	// behaves exactly as the unperturbed cost model above.
	Perturb *Perturb

	// pert holds the lazily initialised per-link RNG streams backing Perturb.
	// It lives on the Machine, and every runtime runs on its own Clone, so
	// no two runs — concurrent sweep jobs, or runs one after another on the
	// caller's Machine — share draws. Each engine is sequential, so no locking.
	pert map[linkKey]*rand.Rand
}

// Clone returns a copy of m whose perturbation streams start empty: the
// Machine a run owns, drawing exactly what a fresh Machine would.
func (m *Machine) Clone() *Machine {
	c := *m
	c.pert = nil
	return &c
}

// ITOA returns the ITO-A-like machine model (Xeon Skylake + InfiniBand EDR,
// 36 cores/node).
func ITOA() *Machine {
	return &Machine{
		Name:          "itoa",
		CoresPerNode:  36,
		InterLatency:  4000, // 4.0 us
		IntraLatency:  800,
		AtomicExtra:   1000,
		NetBytesPerNS: 1.2, // effective small-message bandwidth
		MemBytesPerNS: 12.0,
		LocalOp:       10,
		SpawnCost:     25,
		CtxSwitch:     150,
		AllocCost:     12,
		SpeedFactor:   1.0,
	}
}

// WisteriaO returns the WISTERIA-O-like machine model (A64FX + Tofu-D,
// 48 cores/node). Cores are slower (2.2 GHz, weaker scalar pipeline) but the
// interconnect has lower base latency and HBM2 gives high local bandwidth.
func WisteriaO() *Machine {
	return &Machine{
		Name:          "wisteria",
		CoresPerNode:  48,
		InterLatency:  3200, // 3.2 us
		IntraLatency:  700,
		AtomicExtra:   800,
		NetBytesPerNS: 2.0,
		MemBytesPerNS: 24.0,
		LocalOp:       25,
		SpawnCost:     65,
		CtxSwitch:     420,
		AllocCost:     30,
		SpeedFactor:   2.7,
	}
}

// Uniform returns a simple test machine: every remote op costs lat, one core
// per node, negligible local costs, unit bandwidths. Useful for unit tests
// that need exact, easily predictable timings.
func Uniform(lat sim.Time) *Machine {
	return &Machine{
		Name:          "uniform",
		CoresPerNode:  1,
		InterLatency:  lat,
		IntraLatency:  lat,
		AtomicExtra:   0,
		NetBytesPerNS: 1e12, // effectively infinite
		MemBytesPerNS: 1e12,
		LocalOp:       0,
		SpawnCost:     0,
		CtxSwitch:     0,
		AllocCost:     0,
		SpeedFactor:   1.0,
	}
}

// NodeOf returns the node index hosting the given rank.
func (m *Machine) NodeOf(rank int) int { return rank / m.CoresPerNode }

// MinCrossNodeLatency returns a lower bound on the virtual-time delay of
// any event one node can cause on another. The bound is the inter-node
// base latency: every cross-node path goes through OneSided/OpDelay, whose
// size term is non-negative, whose atomic surcharge only adds, and whose
// perturbation model clamps the jittered delay to at least the base (see
// Machine.OpDelay) — so no cross-node operation, perturbed or not, can
// complete in less than InterLatency.
func (m *Machine) MinCrossNodeLatency() sim.Time { return m.InterLatency }

// SameNode reports whether two ranks share a node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// OneSided returns the simulated duration of a one-sided put/get of size
// bytes from rank `from` to rank `to`. atomic selects the atomic-op surcharge.
// Intra-node ops go through the MPI shared-memory window, so their size term
// is billed at memory bandwidth, not network bandwidth.
func (m *Machine) OneSided(from, to, size int, atomic bool) sim.Time {
	base := m.InterLatency
	bw := m.NetBytesPerNS
	if m.SameNode(from, to) {
		base = m.IntraLatency
		bw = m.MemBytesPerNS
	}
	if atomic {
		base += m.AtomicExtra
	}
	return base + sim.Time(float64(size)/bw)
}

// Memcpy returns the duration of a local memory copy of size bytes.
func (m *Machine) Memcpy(size int) sim.Time {
	return sim.Time(float64(size) / m.MemBytesPerNS)
}

// Compute scales a nominal (ITO-A-reference) compute duration by the
// machine's core speed.
func (m *Machine) Compute(d sim.Time) sim.Time {
	return sim.Time(float64(d) * m.SpeedFactor)
}
