// Package remobj manages remote objects: dynamically allocated,
// RDMA-accessible records (thread entries, saved contexts of suspended
// threads) that can be freed by *any* worker, not just the owner — the
// memory-management problem §III-B of the paper addresses.
//
// Two strategies are provided:
//
//   - LockQueue — the baseline of Akiyama and Taura: each worker has a
//     lock-protected incoming queue of remotely freed locations. Freeing an
//     object remotely costs four round trips (lock CAS, counter
//     fetch-and-add, buffer put, lock release put); the owner drains the
//     queue under its own lock.
//
//   - LocalCollection — the paper's optimization: the owner keeps all its
//     remote objects on a local (intrusive, doubly linked) list; a remote
//     free is a single *nonblocking* put that sets the object's free bit;
//     when the owner's allocated bytes exceed a limit, it sweeps the list
//     and reclaims every object whose free bit is set. The expensive work
//     moves from remote workers to the owner, "because the cost of local
//     operations is much lower than that of remote operations."
//
// Every object is laid out as [8-byte header | payload]; the header holds
// the free bit. Alloc returns the payload location, so callers never see the
// header.
package remobj

import (
	"fmt"

	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// Strategy selects the remote-free implementation.
type Strategy int

const (
	// LockQueue is the baseline lock-protected incoming free queue.
	LockQueue Strategy = iota
	// LocalCollection is the optimized free-bit + owner-sweep scheme.
	LocalCollection
)

func (s Strategy) String() string {
	if s == LockQueue {
		return "lockqueue"
	}
	return "localcollection"
}

const headerLen = 8

// freeBit is the header word a LocalCollection remote free puts: the free
// bit set. Read-only.
var freeBit = []byte{1, 0, 0, 0, 0, 0, 0, 0}

// DefaultSweepLimit is the default allocated-bytes threshold that triggers
// a local-collection sweep.
const DefaultSweepLimit = 256 * 1024

// lockQueueCap is the capacity of the baseline incoming free queue.
const lockQueueCap = 4096

// Stats counts per-owner memory-management events.
type Stats struct {
	Allocs      uint64
	RemoteFrees uint64 // frees this rank performed against other ranks
	Sweeps      uint64 // local-collection sweeps run
	Swept       uint64 // objects reclaimed by sweeps
	Drains      uint64 // lock-queue drains run
	Drained     uint64 // objects reclaimed from the incoming queue
}

// node is the owner-side record of a live remote object (the intrusive
// doubly linked list of the local-collection scheme). A reclaimed node goes
// on its manager's free list, linked through next, for the next Alloc.
type node struct {
	header     rdma.Addr // header address in the owner's segment
	size       int       // payload size
	prev, next *node
}

// Manager is one rank's remote-object allocator. Use Space to wire the
// managers of all ranks together so remote frees can find the target.
type Manager struct {
	fab      *rdma.Fabric
	mach     *topo.Machine
	rank     int
	strategy Strategy

	// local-collection state
	head, tail *node
	free       *node // reclaimed nodes, linked through next
	byHeader   map[rdma.Addr]*node
	liveBytes  int
	SweepLimit int

	// lock-queue state: block = [lock | count | buf[cap] of encoded Locs]
	lqBase rdma.Addr

	St Stats

	// Tr, when non-nil, receives remote-free protocol spans issued *by*
	// this rank (lock acquisition, whole free chain, free-bit puts) and
	// owner-side reclamation spans (sweeps, drains). Nil by default.
	Tr obs.Tracer
}

func newManager(fab *rdma.Fabric, rank int, strategy Strategy) *Manager {
	m := &Manager{
		fab:        fab,
		mach:       fab.Mach,
		rank:       rank,
		strategy:   strategy,
		byHeader:   make(map[rdma.Addr]*node),
		SweepLimit: DefaultSweepLimit,
	}
	if strategy == LockQueue {
		m.lqBase = fab.AllocStatic(rank, 16+lockQueueCap*rdma.LocSize)
	}
	return m
}

func (m *Manager) lqLoc(off, size int) rdma.Loc {
	return rdma.Loc{Rank: int32(m.rank), Addr: m.lqBase + rdma.Addr(off), Size: int32(size)}
}

// LiveBytes returns the payload bytes currently allocated by this rank.
func (m *Manager) LiveBytes() int { return m.liveBytes }

// LiveObjects returns the number of live objects owned by this rank.
func (m *Manager) LiveObjects() int { return len(m.byHeader) }

// Alloc allocates a remote object with a payload of size bytes in this
// rank's segment and returns the payload location. Owner-local; charges the
// machine's allocation cost.
func (m *Manager) Alloc(p *sim.Proc, size int) rdma.Loc {
	header := m.fab.Alloc(m.rank, headerLen+size)
	n := m.free
	if n == nil {
		n = &node{}
	} else {
		m.free = n.next
	}
	*n = node{header: header, size: size}
	m.byHeader[header] = n
	// Append to the doubly linked list.
	if m.tail == nil {
		m.head, m.tail = n, n
	} else {
		n.prev = m.tail
		m.tail.next = n
		m.tail = n
	}
	m.liveBytes += size
	m.St.Allocs++
	p.Sleep(m.mach.AllocCost)
	// The local-collection sweep runs at allocation time, when the limit is
	// exceeded — moving reclamation cost onto the owner.
	if m.strategy == LocalCollection && m.liveBytes > m.SweepLimit {
		m.sweep(p)
	}
	return rdma.Loc{Rank: int32(m.rank), Addr: header + headerLen, Size: int32(size)}
}

// unlink removes n from the list, releases its memory and puts n on the
// free list.
func (m *Manager) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.tail = n.prev
	}
	delete(m.byHeader, n.header)
	m.liveBytes -= n.size
	m.fab.Free(m.rank, n.header, headerLen+n.size)
	n.prev, n.next, m.free = nil, m.free, n
}

// freeLocal reclaims an object owned by this rank immediately.
func (m *Manager) freeLocal(p *sim.Proc, loc rdma.Loc) {
	header := loc.Addr - headerLen
	n, ok := m.byHeader[header]
	if !ok {
		panic(fmt.Sprintf("remobj: rank %d: local free of unknown object %v", m.rank, loc))
	}
	if int32(n.size) != loc.Size {
		panic(fmt.Sprintf("remobj: rank %d: free size %d != alloc size %d", m.rank, loc.Size, n.size))
	}
	m.unlink(n)
	p.Sleep(m.mach.LocalOp)
}

// sweep walks the list and reclaims every object whose free bit was set by
// a remote worker. Owner-local; cost is one local op per visited object.
func (m *Manager) sweep(p *sim.Proc) {
	m.St.Sweeps++
	seg := m.fab.Seg(m.rank)
	visited := 0
	swept := 0
	for n := m.head; n != nil; {
		next := n.next
		visited++
		if seg.ReadInt64(n.header) != 0 {
			m.unlink(n)
			m.St.Swept++
			swept++
		}
		n = next
	}
	cost := sim.Time(visited) * m.mach.LocalOp
	if m.Tr != nil {
		m.Tr.Event(obs.Event{
			T: p.Now(), Dur: cost, Rank: m.rank, Kind: obs.KindSweep,
			Task: -1, Peer: -1, Size: int64(swept),
		})
	}
	p.Sleep(cost)
}

// drain empties this rank's lock-queue of incoming remote frees.
// Owner-local: acquire own lock, read count, free each, reset, release.
func (m *Manager) drain(p *sim.Proc) {
	start := p.Now()
	seg := m.fab.Seg(m.rank)
	// Owner lock acquisition is a local atomic.
	for m.fab.CAS(p, m.rank, m.lqLoc(0, 8), 0, 1) != 0 {
		p.Sleep(m.mach.LocalOp)
	}
	count := seg.ReadInt64(m.lqBase + 8)
	for i := int64(0); i < count; i++ {
		loc := rdma.DecodeLoc(seg.Bytes(m.lqBase+16+rdma.Addr(i)*rdma.LocSize, rdma.LocSize))
		header := loc.Addr - headerLen
		if n, ok := m.byHeader[header]; ok {
			m.unlink(n)
			m.St.Drained++
		}
		p.Sleep(m.mach.LocalOp)
	}
	seg.WriteInt64(m.lqBase+8, 0)
	seg.WriteInt64(m.lqBase, 0)
	m.St.Drains++
	p.Sleep(2 * m.mach.LocalOp)
	if m.Tr != nil {
		m.Tr.Event(obs.Event{
			T: start, Dur: p.Now() - start, Rank: m.rank, Kind: obs.KindDrain,
			Task: -1, Peer: -1, Size: count,
		})
	}
}

// Space wires together the per-rank managers of one runtime instance.
type Space struct {
	Mgrs []*Manager
}

// NewSpace creates a manager for every rank of the fabric.
func NewSpace(fab *rdma.Fabric, strategy Strategy) *Space {
	s := &Space{Mgrs: make([]*Manager, fab.Ranks())}
	for r := range s.Mgrs {
		s.Mgrs[r] = newManager(fab, r, strategy)
	}
	return s
}

// SetTracer points every rank's manager at tr.
func (s *Space) SetTracer(tr obs.Tracer) {
	for _, m := range s.Mgrs {
		m.Tr = tr
	}
}

// Alloc allocates a remote object owned by rank `from`.
func (s *Space) Alloc(p *sim.Proc, from, size int) rdma.Loc {
	return s.Mgrs[from].Alloc(p, size)
}

// Free releases the object at loc on behalf of rank `from` — the paper's
// FREEREMOTE. If from owns the object the free is immediate and local;
// otherwise the configured remote-free strategy runs.
func (s *Space) Free(p *sim.Proc, from int, loc rdma.Loc) {
	owner := s.Mgrs[loc.Rank]
	if int(loc.Rank) == from {
		owner.freeLocal(p, loc)
		return
	}
	me := s.Mgrs[from]
	me.St.RemoteFrees++
	tr := me.Tr
	switch me.strategy {
	case LocalCollection:
		// One nonblocking put setting the free bit; the owner reclaims it
		// during a later sweep.
		if tr != nil {
			tr.Event(obs.Event{
				T: p.Now(), Dur: 0, Rank: from, Kind: obs.KindFreeBit,
				Task: -1, Peer: int(loc.Rank),
			})
		}
		me.fab.PutNB(p, from,
			rdma.Loc{Rank: loc.Rank, Addr: loc.Addr - headerLen, Size: 8}, freeBit)
	case LockQueue:
		// Four round trips against the owner's incoming queue, run as one
		// completion chain: the freeing worker parks once for the whole
		// protocol instead of once per round trip. The CAS-retry link
		// reissues itself until the lock is won; every attempt is a round
		// trip, exactly as in the blocking formulation.
		fab := me.fab
		lock := owner.lqLoc(0, 8)
		c := fab.Eng.NewChain(p)
		var buf [rdma.LocSize]byte
		rdma.EncodeLoc(buf[:], loc)
		// Tracing: the acquire span runs from issue until the lock CAS wins;
		// the free span covers the whole chain. Both share a correlation id.
		var (
			sid int64
			t0  sim.Time
		)
		if tr != nil {
			sid = tr.Seq()
			t0 = fab.Eng.Now()
		}
		done := c.Complete
		if tr != nil {
			done = func() {
				tr.Event(obs.Event{
					T: t0, Dur: fab.Eng.Now() - t0, Rank: from, Kind: obs.KindLockQFree,
					Task: -1, Peer: int(loc.Rank), ID: sid,
				})
				c.Complete()
			}
		}
		var onLock func(observed int64)
		onLock = func(observed int64) {
			if observed != 0 {
				fab.CASAsync(from, lock, 0, 1, onLock)
				return
			}
			if tr != nil {
				tr.Event(obs.Event{
					T: t0, Dur: fab.Eng.Now() - t0, Rank: from, Kind: obs.KindLockQAcquire,
					Task: -1, Peer: int(loc.Rank), ID: sid,
				})
			}
			fab.FetchAddAsync(from, owner.lqLoc(8, 8), 1, func(idx int64) {
				if idx >= lockQueueCap {
					panic("remobj: lock-queue overflow; owner is not draining")
				}
				fab.PutAsync(from, owner.lqLoc(16+int(idx)*rdma.LocSize, rdma.LocSize), buf[:], func() {
					fab.PutInt64Async(from, lock, 0, done)
				})
			})
		}
		fab.CASAsync(from, lock, 0, 1, onLock)
		c.Wait()
	}
}

// Collect runs the owner-side reclamation for rank: a queue drain under
// LockQueue (call it periodically, e.g. on failed steals), a sweep under
// LocalCollection (also triggered automatically by allocation pressure).
func (s *Space) Collect(p *sim.Proc, rank int) {
	m := s.Mgrs[rank]
	switch m.strategy {
	case LockQueue:
		m.drain(p)
	case LocalCollection:
		m.sweep(p)
	}
}

// Stats returns the counters of one rank's manager.
func (s *Space) Stats(rank int) Stats { return s.Mgrs[rank].St }

// TotalStats aggregates counters across ranks.
func (s *Space) TotalStats() Stats {
	var t Stats
	for _, m := range s.Mgrs {
		t.Allocs += m.St.Allocs
		t.RemoteFrees += m.St.RemoteFrees
		t.Sweeps += m.St.Sweeps
		t.Swept += m.St.Swept
		t.Drains += m.St.Drains
		t.Drained += m.St.Drained
	}
	return t
}
