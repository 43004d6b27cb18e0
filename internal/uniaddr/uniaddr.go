// Package uniaddr implements the uni-address thread-stack management scheme
// of Akiyama and Taura (HPDC '15), as summarised in §II-D of the paper.
//
// Each worker owns two pinned, RDMA-accessible memory regions:
//
//   - the uni-address region, which occupies the *same virtual address
//     range on every worker*, and holds the stacks of threads that are
//     running or stealable. A new thread's stack is placed immediately
//     above the current thread's stack, so stacks of ancestors never
//     overlap and a stolen stack can be copied to the identical virtual
//     address on the thief, preserving pointers into the stack.
//
//   - the evacuation region, private to each worker, to which the stack of
//     a suspended thread is moved ("evacuated") so the uni-address space it
//     occupied can be reused. When the thread is resumed its stack is
//     copied back to the virtual address it was first given.
//
// In this reproduction "virtual addresses" are offsets into a per-rank
// region backed by the rank's simulated RDMA segment; the uni-address
// property (identical layout across ranks) is established by allocating the
// backing block first, at fabric construction, and asserting equality.
// Stack contents are real bytes (the runtime stores serialized frame data in
// them), so migration and evacuation are observable, testable data moves —
// only the CPU register context is elided, because Go cannot serialize a
// goroutine (see DESIGN.md §1).
package uniaddr

import (
	"fmt"
	"sort"

	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// VAddr is a virtual address within a worker's uni-address or evacuation
// region (an offset from the region base). VAddr 0 is valid.
type VAddr uint64

// interval is a half-open allocated range [lo, hi).
type interval struct{ lo, hi uint64 }

// Region is an interval allocator over a fixed-size address range. Alloc is
// lowest-fit, which reproduces the "place the new stack immediately above
// the current one" behaviour when the region is used as a pile, while still
// reusing holes left by stolen or evacuated stacks beneath.
type Region struct {
	name string
	size uint64
	ivs  []interval // sorted by lo, non-overlapping
	high uint64     // high-water mark
	used uint64
}

// NewRegion creates an allocator for a region of the given byte size.
func NewRegion(name string, size int) *Region {
	return &Region{name: name, size: uint64(size)}
}

// Size returns the region's capacity in bytes.
func (r *Region) Size() int { return int(r.size) }

// InUse returns currently allocated bytes.
func (r *Region) InUse() int { return int(r.used) }

// HighWater returns the highest address ever allocated.
func (r *Region) HighWater() int { return int(r.high) }

// Alloc reserves size bytes at the lowest available address. It returns
// false when the region cannot fit the request.
func (r *Region) Alloc(size int) (VAddr, bool) {
	if size <= 0 {
		panic("uniaddr: alloc of non-positive size")
	}
	n := uint64((size + 7) &^ 7)
	lo := uint64(0)
	for i, iv := range r.ivs {
		if iv.lo-lo >= n {
			r.insert(i, interval{lo, lo + n})
			r.note(lo + n)
			return VAddr(lo), true
		}
		lo = iv.hi
	}
	if r.size-lo < n {
		return 0, false
	}
	r.insert(len(r.ivs), interval{lo, lo + n})
	r.note(lo + n)
	return VAddr(lo), true
}

// Reserve claims exactly [addr, addr+size); it fails if any byte is already
// allocated or out of range. Used to restore an evacuated stack to the
// virtual address it was first assigned.
func (r *Region) Reserve(addr VAddr, size int) bool {
	n := uint64((size + 7) &^ 7)
	lo, hi := uint64(addr), uint64(addr)+n
	if hi > r.size {
		return false
	}
	i := sort.Search(len(r.ivs), func(i int) bool { return r.ivs[i].hi > lo })
	if i < len(r.ivs) && r.ivs[i].lo < hi {
		return false
	}
	r.insert(i, interval{lo, hi})
	r.note(hi)
	return true
}

// Free releases [addr, addr+size), which must exactly match a prior
// Alloc/Reserve.
func (r *Region) Free(addr VAddr, size int) {
	n := uint64((size + 7) &^ 7)
	lo := uint64(addr)
	for i, iv := range r.ivs {
		if iv.lo == lo {
			if iv.hi != lo+n {
				panic(fmt.Sprintf("uniaddr: %s: free [0x%x,+%d) does not match allocation [0x%x,0x%x)",
					r.name, lo, n, iv.lo, iv.hi))
			}
			r.ivs = append(r.ivs[:i], r.ivs[i+1:]...)
			r.used -= n
			return
		}
	}
	panic(fmt.Sprintf("uniaddr: %s: free of unallocated address 0x%x", r.name, lo))
}

// Allocated reports whether addr is inside an allocated interval.
func (r *Region) Allocated(addr VAddr) bool {
	a := uint64(addr)
	i := sort.Search(len(r.ivs), func(i int) bool { return r.ivs[i].hi > a })
	return i < len(r.ivs) && r.ivs[i].lo <= a
}

// Count returns the number of live allocations.
func (r *Region) Count() int { return len(r.ivs) }

func (r *Region) insert(i int, iv interval) {
	r.ivs = append(r.ivs, interval{})
	copy(r.ivs[i+1:], r.ivs[i:])
	r.ivs[i] = iv
	r.used += iv.hi - iv.lo
}

func (r *Region) note(hi uint64) {
	if hi > r.high {
		r.high = hi
	}
}

// Stats aggregates the events a Manager records.
type Stats struct {
	Evacuations  uint64 // stacks moved uni -> evacuation
	Restores     uint64 // stacks moved evacuation -> uni
	MigrationsIn uint64 // stacks copied in from another rank
	BytesMoved   uint64 // total stack bytes copied (all three paths)
	Conflicts    uint64 // restores whose uni slot was occupied (should stay 0)
}

// Manager manages the uni-address and evacuation regions of one rank and
// charges the simulated cost of every stack move.
type Manager struct {
	Fab  *rdma.Fabric
	Mach *topo.Machine
	Rank int

	Uni  *Region
	Evac *Region

	uniBase  rdma.Addr // backing block in the rank's RDMA segment
	evacBase rdma.Addr

	St Stats

	// Tr, when non-nil, receives stack-movement spans: remote migrations in
	// (uniaddr.migratein) and local evacuate/restore copies. Nil by default.
	Tr obs.Tracer
}

// New creates the manager for one rank, carving the two regions out of the
// rank's registered segment. It must be called in the same order on every
// rank (normally: for each rank at startup) so that uniBase — and therefore
// the virtual layout — is identical everywhere; this is asserted by
// SameLayout.
func New(fab *rdma.Fabric, rank, uniSize, evacSize int) *Manager {
	return &Manager{
		Fab:      fab,
		Mach:     fab.Mach,
		Rank:     rank,
		Uni:      NewRegion("uni", uniSize),
		Evac:     NewRegion("evac", evacSize),
		uniBase:  fab.AllocStatic(rank, uniSize),
		evacBase: fab.AllocStatic(rank, evacSize),
	}
}

// SameLayout reports whether two managers have identical backing layout —
// the uni-address property.
func SameLayout(a, b *Manager) bool {
	return a.uniBase == b.uniBase && a.Uni.Size() == b.Uni.Size()
}

// UniLoc returns the fabric location of [addr, addr+size) in this rank's
// uni-address region, for use by remote thieves.
func (m *Manager) UniLoc(addr VAddr, size int) rdma.Loc {
	return rdma.Loc{Rank: int32(m.Rank), Addr: m.uniBase + rdma.Addr(addr), Size: int32(size)}
}

// EvacLoc returns the fabric location of [addr, addr+size) in this rank's
// evacuation region.
func (m *Manager) EvacLoc(addr VAddr, size int) rdma.Loc {
	return rdma.Loc{Rank: int32(m.Rank), Addr: m.evacBase + rdma.Addr(addr), Size: int32(size)}
}

// UniBytes gives direct (owner, zero-cost) access to uni-region memory.
func (m *Manager) UniBytes(addr VAddr, size int) []byte {
	return m.Fab.Seg(m.Rank).Bytes(m.uniBase+rdma.Addr(addr), size)
}

// EvacBytes gives direct access to evacuation-region memory.
func (m *Manager) EvacBytes(addr VAddr, size int) []byte {
	return m.Fab.Seg(m.Rank).Bytes(m.evacBase+rdma.Addr(addr), size)
}

// PushStack allocates a stack of the given size in the uni-address region
// (step 1, "Spawn", of Fig. 2). It panics on overflow: a real uni-address
// runtime would abort, and callers size the region generously.
//
// The whole stack is touched here, so every live stack in the region is
// committed backing from its first byte to its last — as Restore and
// MigrateIn leave theirs — and a thief reading one can never be the access
// that grows the region's backing (see MigrateInAsync).
func (m *Manager) PushStack(size int) VAddr {
	a, ok := m.Uni.Alloc(size)
	if !ok {
		panic(fmt.Sprintf("uniaddr: rank %d uni-address region exhausted (%d in use of %d)",
			m.Rank, m.Uni.InUse(), m.Uni.Size()))
	}
	m.UniBytes(a, size)
	return a
}

// PopStack releases a stack when its thread dies locally (step 2, "Die") or
// after its contents were stolen or evacuated.
func (m *Manager) PopStack(addr VAddr, size int) { m.Uni.Free(addr, size) }

// Evacuate moves a suspended thread's stack from the uni-address region to
// the evacuation region (step 4, "Suspend"): a local memcpy whose cost is
// charged to p. The uni slot is freed. It returns the evacuation address.
func (m *Manager) Evacuate(p *sim.Proc, addr VAddr, size int) VAddr {
	ev, ok := m.Evac.Alloc(size)
	if !ok {
		panic(fmt.Sprintf("uniaddr: rank %d evacuation region exhausted", m.Rank))
	}
	copy(m.EvacBytes(ev, size), m.UniBytes(addr, size))
	m.Uni.Free(addr, size)
	m.St.Evacuations++
	m.St.BytesMoved += uint64(size)
	cost := m.Mach.Memcpy(size)
	if m.Tr != nil {
		m.Tr.Event(obs.Event{
			T: p.Now(), Dur: cost, Rank: m.Rank, Kind: obs.KindEvacuate,
			Task: -1, Peer: -1, Size: int64(size),
		})
	}
	p.Sleep(cost)
	return ev
}

// Restore moves an evacuated stack back to its original uni-address (step
// 5, "Resume"): a local memcpy. If the original address range is occupied
// the conflict counter is incremented and Restore reports false; the caller
// falls back to running the thread from the evacuation copy (a liberty the
// simulator can take; see package comment).
func (m *Manager) Restore(p *sim.Proc, evacAddr VAddr, origAddr VAddr, size int) bool {
	if !m.Uni.Reserve(origAddr, size) {
		m.St.Conflicts++
		return false
	}
	copy(m.UniBytes(origAddr, size), m.EvacBytes(evacAddr, size))
	m.Evac.Free(evacAddr, size)
	m.St.Restores++
	m.St.BytesMoved += uint64(size)
	cost := m.Mach.Memcpy(size)
	if m.Tr != nil {
		m.Tr.Event(obs.Event{
			T: p.Now(), Dur: cost, Rank: m.Rank, Kind: obs.KindRestore,
			Task: -1, Peer: -1, Size: int64(size),
		})
	}
	p.Sleep(cost)
	return true
}

// FreeEvac releases an evacuation slot without restoring (e.g. the thread
// was migrated to another rank directly from the evacuation region).
func (m *Manager) FreeEvac(addr VAddr, size int) { m.Evac.Free(addr, size) }

// MigrateIn copies a stack from src (a location inside another rank's uni
// or evacuation region) into this rank's uni-address region at virtual
// address addr — the RDMA stack transfer of a steal (step 3, "Steal") or of
// resuming a remotely suspended thread. The transfer cost (latency +
// size/bandwidth) is charged to p via the fabric. It reports false on an
// address conflict (counted), in which case no copy happens.
//
// The destination slice is taken at issue time and held across the flight,
// which rdma.Segment.Bytes allows only while the uni region's backing cannot
// grow: p is parked for the flight, and the only other accesses to this uni
// region are remote reads of whole live stacks, all of which are committed
// already (PushStack).
func (m *Manager) MigrateIn(p *sim.Proc, src rdma.Loc, addr VAddr, size int) bool {
	if !m.Uni.Reserve(addr, size) {
		m.St.Conflicts++
		return false
	}
	t0 := p.Now()
	m.Fab.Get(p, m.Rank, src, m.UniBytes(addr, size))
	m.St.MigrationsIn++
	m.St.BytesMoved += uint64(size)
	if m.Tr != nil {
		m.Tr.Event(obs.Event{
			T: t0, Dur: p.Now() - t0, Rank: m.Rank, Kind: obs.KindMigrateIn,
			Task: -1, Peer: int(src.Rank), Size: int64(size),
		})
	}
	return true
}
