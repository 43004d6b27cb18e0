// Package rdma simulates a one-sided (RDMA) communication fabric over the
// discrete-event engine. It provides exactly the primitives the paper's
// algorithms are written against: remote get, remote put, and remote atomic
// fetch-and-add / compare-and-swap on 8-byte words, plus per-rank registered
// memory segments with a local allocator.
//
// Every rank (simulated process, one per core) owns a Segment: a flat byte
// array standing in for its pinned, RDMA-registered memory. A Loc names a
// remote variable by (rank, address, size), mirroring the paper's
// "location" notion (§III-A: "the worker ID of the owner, the virtual
// address, and the size").
//
// Timing: an operation issued by rank F against rank T completes after the
// machine model's one-sided latency (intra- vs inter-node, plus payload
// transfer time and an atomic surcharge) and performs its memory access at
// that completion instant, so operations from different workers interleave
// in completion order — the property the THE protocol and the greedy-join
// race depend on. Operations by a rank on its own segment are free of
// network latency (the caller charges local costs separately).
//
// The fabric is split-phase: the *Async methods issue an operation and
// invoke a completion callback at the op's completion time (local ops run
// the callback inline), so a multi-op protocol executes as engine-loop
// callbacks with a single proc handoff at the end — its issuer parked on a
// sim.Chain that the last callback completes. The blocking
// methods (Get, Put, CAS, ...) park the issuer until the same completion
// and are exactly equivalent in virtual time: each remote op consumes one
// event and one sequence number either way, a same-rank op none.
package rdma

import (
	"encoding/binary"
	"fmt"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// Addr is an offset within a rank's registered segment. Address 0 is
// reserved (never allocated) so that the zero Loc is recognizably invalid.
type Addr uint64

// Loc names a remote variable: the owning rank, the address within that
// rank's segment, and the size in bytes.
type Loc struct {
	Rank int32
	Addr Addr
	Size int32
}

// Valid reports whether the Loc names an allocated object (non-zero addr).
func (l Loc) Valid() bool { return l.Addr != 0 }

func (l Loc) String() string {
	return fmt.Sprintf("r%d:0x%x+%d", l.Rank, uint64(l.Addr), l.Size)
}

// LocSize is the wire size of an encoded Loc (rank, addr, size).
const LocSize = 16

// EncodeLoc serializes l into buf (at least LocSize bytes).
func EncodeLoc(buf []byte, l Loc) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(l.Rank))
	binary.LittleEndian.PutUint64(buf[4:], uint64(l.Addr))
	binary.LittleEndian.PutUint32(buf[12:], uint32(l.Size))
}

// DecodeLoc deserializes a Loc from buf.
func DecodeLoc(buf []byte) Loc {
	return Loc{
		Rank: int32(binary.LittleEndian.Uint32(buf[0:])),
		Addr: Addr(binary.LittleEndian.Uint64(buf[4:])),
		Size: int32(binary.LittleEndian.Uint32(buf[12:])),
	}
}

// OpStats counts fabric operations issued by one rank.
type OpStats struct {
	Gets, Puts, Atomics uint64 // remote operations issued
	LocalOps            uint64 // same-rank fabric accesses
	InterNode           uint64 // remote operations whose target is on another node
	BytesOut, BytesIn   uint64 // payload bytes moved by remote ops
	// RemoteTime is the summed modelled completion delay of every remote
	// operation issued by this rank (including fire-and-forget PutNB). It
	// equals the summed duration of the rank's rdma.* trace spans by
	// construction — the fabric-wait column of `repro analyze`.
	RemoteTime sim.Time
	// PerturbTime is the portion of RemoteTime added by the machine's
	// Perturb model (jitter, degraded links). Zero when perturbations are
	// off; equals the summed duration of the rank's perturb.extra spans.
	PerturbTime sim.Time
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Gets += other.Gets
	s.Puts += other.Puts
	s.Atomics += other.Atomics
	s.LocalOps += other.LocalOps
	s.InterNode += other.InterNode
	s.BytesOut += other.BytesOut
	s.BytesIn += other.BytesIn
	s.RemoteTime += other.RemoteTime
	s.PerturbTime += other.PerturbTime
}

// Fabric is the simulated RDMA network connecting P ranks.
type Fabric struct {
	Eng  *sim.Engine
	Mach *topo.Machine
	segs []*Segment
	st   []OpStats
	ops  *op // free list of completion records

	// Tr, when non-nil, receives one span per remote operation (kind, size,
	// issuer and target rank, issue time, modelled delay). Local operations
	// are not traced. Set before the run starts; nil costs one predictable
	// branch per op.
	Tr obs.Tracer
}

// remote models one remote op's completion delay — the machine cost plus any
// perturbation extra (latency jitter, degraded links) — charges it to the
// issuer's RemoteTime/PerturbTime, and traces it. Called exactly once per
// remote operation, at issue time; the returned delay is what the op's chain
// link (or After callback) waits for. When perturbations are off the extra
// is zero, no RNG is consumed, and no perturb span is emitted, so the traced
// timeline is byte-identical to the unperturbed one.
func (f *Fabric) remote(from int, to int32, kind obs.Kind, size int, atomic bool) sim.Time {
	delay, extra := f.Mach.OpDelay(from, int(to), size, atomic)
	f.st[from].RemoteTime += delay
	f.st[from].PerturbTime += extra
	if f.Tr != nil {
		f.Tr.Event(obs.Event{
			T: f.Eng.Now(), Dur: delay, Rank: from, Kind: kind,
			Task: -1, Peer: int(to), Size: int64(size),
		})
		if extra > 0 {
			f.Tr.Event(obs.Event{
				T: f.Eng.Now(), Dur: extra, Rank: from, Kind: obs.KindPerturb,
				Task: -1, Peer: int(to), Size: int64(size),
			})
		}
	}
	return delay
}

// NewFabric creates a fabric with nranks ranks, each owning a segment.
// segSize only seeds the dynamic zone's first backing (at most 4 KiB, see
// newSegment); everything else is committed when first touched.
func NewFabric(eng *sim.Engine, mach *topo.Machine, nranks, segSize int) *Fabric {
	f := &Fabric{
		Eng:  eng,
		Mach: mach,
		segs: make([]*Segment, nranks),
		st:   make([]OpStats, nranks),
	}
	for i := range f.segs {
		f.segs[i] = newSegment(segSize)
	}
	return f
}

// Ranks returns the number of ranks.
func (f *Fabric) Ranks() int { return len(f.segs) }

// Seg returns rank's segment for direct local access (no simulated cost).
func (f *Fabric) Seg(rank int) *Segment { return f.segs[rank] }

// Stats returns the operation counters for one rank.
func (f *Fabric) Stats(rank int) OpStats { return f.st[rank] }

// TotalStats returns counters aggregated over all ranks.
func (f *Fabric) TotalStats() OpStats {
	var t OpStats
	for i := range f.st {
		t.Add(f.st[i])
	}
	return t
}

// Alloc allocates size bytes in rank's segment and returns the address.
// Allocation is a local operation performed by the owner; the simulated
// cost (Machine.AllocCost) is charged by the caller, not here.
func (f *Fabric) Alloc(rank, size int) Addr { return f.segs[rank].alloc(size) }

// AllocStatic allocates size bytes in rank's *static zone*: a separate,
// never-freed address range (at StaticBase and up) intended for large
// fixed structures (queues, stack regions). Each allocation has a backing of
// its own that grows to the highest offset touched inside it, so a 16 MiB
// reservation of which a few KB are used costs a few KB, wherever it sits.
// An access may not run from one allocation into the next.
func (f *Fabric) AllocStatic(rank, size int) Addr { return f.segs[rank].allocStatic(size) }

// Free returns a block previously obtained from Alloc to rank's free list.
func (f *Fabric) Free(rank int, addr Addr, size int) { f.segs[rank].free(addr, size) }

// opKind selects one of the six memory effects (see Segment.apply).
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opGet64
	opPut64
	opFetchAdd
	opCAS
)

// op is the completion record of one remote operation in flight: what to do
// to the target's memory when the modelled delay has elapsed, and whom to
// tell. Records are pooled on the Fabric (an intrusive free list, like the
// engine's chains) and fire is bound once, so a warmed remote op allocates
// nothing.
type op struct {
	f    *Fabric
	kind opKind
	to   int32
	addr Addr
	buf  []byte // get destination / put source
	a, b int64  // put64 value / fetch-add delta / CAS old, new

	// Exactly one of these receives the completion; none means fire and
	// forget (PutNB). A blocked proc (c) owns its record: it reads val after
	// Wait and releases the record itself.
	then  func()
	thenV func(v int64)
	c     *sim.Chain
	val   int64

	fire func() // o.complete, bound once
	next *op    // Fabric free list
}

// start begins one operation. A same-rank access carries no network latency:
// it is counted, performed inline, and start returns (nil, the word read). A
// remote op is booked against the issuer (counters, modelled delay, trace
// span) and its completion event scheduled; the caller attaches its
// continuation to the returned record before the engine runs again.
func (f *Fabric) start(from int, loc Loc, kind opKind, buf []byte, a, b int64) (*op, int64) {
	size := 8
	if kind <= opPut {
		if size = len(buf); int32(size) > loc.Size {
			panic(fmt.Sprintf("rdma: %s of %d bytes at %v", [...]string{"get", "put"}[kind], size, loc))
		}
	}
	st := &f.st[from]
	if int32(from) == loc.Rank {
		st.LocalOps++
		return nil, f.segs[from].apply(kind, loc.Addr, buf, a, b)
	}
	tk := obs.KindRDMAAtomic
	switch kind {
	case opGet, opGet64:
		st.Gets++
		st.BytesIn += uint64(size)
		tk = obs.KindRDMAGet
	case opPut, opPut64:
		st.Puts++
		st.BytesOut += uint64(size)
		tk = obs.KindRDMAPut
	default:
		st.Atomics++
	}
	if !f.Mach.SameNode(from, int(loc.Rank)) {
		st.InterNode++
	}
	delay := f.remote(from, loc.Rank, tk, size, kind >= opFetchAdd)
	o := f.ops
	if o == nil {
		o = &op{f: f}
		o.fire = o.complete
	} else {
		f.ops = o.next
	}
	o.kind, o.to, o.addr, o.buf, o.a, o.b = kind, loc.Rank, loc.Addr, buf, a, b
	f.Eng.After(delay, o.fire)
	return o, 0
}

// complete is a remote op's completion event: the memory access happens now,
// on the target, and the continuation runs within the same event. The record
// goes back to the pool before then runs, so a chain whose every link issues
// the next op keeps reusing one record.
func (o *op) complete() {
	v := o.f.segs[o.to].apply(o.kind, o.addr, o.buf, o.a, o.b)
	if o.c != nil {
		o.val = v
		o.c.Complete()
		return
	}
	then, thenV := o.then, o.thenV
	o.f.release(o)
	if thenV != nil {
		thenV(v)
	} else if then != nil {
		then()
	}
}

// release returns a record to the pool, dropping everything it referenced.
func (f *Fabric) release(o *op) {
	o.buf, o.then, o.thenV, o.c = nil, nil, nil, nil
	o.next, f.ops = f.ops, o
}

// await is the blocking half of the park-until-complete wrappers: o == nil
// means start already performed the op inline (no chain, no event).
func (f *Fabric) await(p *sim.Proc, o *op, v int64) int64 {
	if o == nil {
		return v
	}
	o.c = f.Eng.NewChain(p)
	o.c.Wait()
	v = o.val
	f.release(o)
	return v
}

// GetAsync issues a get of len(dst) bytes from loc: at the op's completion
// time the data lands in dst, then `then` runs, still within that event. A local get completes inline (no event). This is
// the split-phase form of the paper's "get v <- L".
//
// dst must stay untouched by the issuer until the callback runs — the
// issuer is normally parked in Chain.Wait for the duration.
func (f *Fabric) GetAsync(from int, loc Loc, dst []byte, then func()) {
	if o, _ := f.start(from, loc, opGet, dst, 0, 0); o != nil {
		o.then = then
	} else {
		then()
	}
}

// PutAsync issues a put of src to loc: the remote memory becomes visible at
// the op's completion time, then `then` runs. src must stay stable until the
// callback runs (the issuer is normally parked in Chain.Wait). For the fire-and-forget put that only charges an injection
// cost, see PutNB.
func (f *Fabric) PutAsync(from int, loc Loc, src []byte, then func()) {
	if o, _ := f.start(from, loc, opPut, src, 0, 0); o != nil {
		o.then = then
	} else {
		then()
	}
}

// PutInt64Async writes an 8-byte little-endian word to loc; the word becomes
// visible at completion time, then `then` runs.
func (f *Fabric) PutInt64Async(from int, loc Loc, v int64, then func()) {
	if o, _ := f.start(from, loc, opPut64, nil, v, 0); o != nil {
		o.then = then
	} else {
		then()
	}
}

// FetchAddAsync atomically adds delta to the word at loc; the
// read-modify-write applies at completion time and the prior value is
// delivered to `then`. Because the simulation is sequential, no
// other operation can interleave with the atomic.
func (f *Fabric) FetchAddAsync(from int, loc Loc, delta int64, then func(old int64)) {
	if o, v := f.start(from, loc, opFetchAdd, nil, delta, 0); o != nil {
		o.thenV = then
	} else {
		then(v)
	}
}

// CASAsync atomically compares the word at loc with old and, if equal,
// replaces it with new. The observed value (== old on success) is delivered
// to `then` at the op's completion time.
func (f *Fabric) CASAsync(from int, loc Loc, old, new int64, then func(observed int64)) {
	if o, v := f.start(from, loc, opCAS, nil, old, new); o != nil {
		o.thenV = then
	} else {
		then(v)
	}
}

// Get copies the remote variable at loc into dst (len(dst) bytes, at most
// loc.Size), as issued by rank from — the paper's "get v <- L". Blocking:
// p parks until the op completes.
func (f *Fabric) Get(p *sim.Proc, from int, loc Loc, dst []byte) {
	o, v := f.start(from, loc, opGet, dst, 0, 0)
	f.await(p, o, v)
}

// Put copies src into the remote variable at loc, as issued by rank from —
// the paper's "put L <- v". The memory becomes visible at the operation's
// completion time. Blocking.
func (f *Fabric) Put(p *sim.Proc, from int, loc Loc, src []byte) {
	o, v := f.start(from, loc, opPut, src, 0, 0)
	f.await(p, o, v)
}

// InjectCost is the local overhead of posting a nonblocking operation to
// the NIC without waiting for its completion.
const InjectCost = 200 * sim.Nanosecond

// PutNB issues a nonblocking (fire-and-forget) put: the issuer is charged
// only a small injection cost, and the remote memory is updated after the
// one-sided latency has elapsed, without the issuer ever observing the
// completion. This models the paper's nonblocking remote free-bit write
// (§III-B). src is snapshotted at issue time.
func (f *Fabric) PutNB(p *sim.Proc, from int, loc Loc, src []byte) {
	if o, _ := f.start(from, loc, opPut, src, 0, 0); o != nil {
		o.buf = append([]byte(nil), src...)
		p.Sleep(InjectCost)
	}
}

// GetInt64 reads an 8-byte little-endian word at loc. Blocking.
func (f *Fabric) GetInt64(p *sim.Proc, from int, loc Loc) int64 {
	o, v := f.start(from, loc, opGet64, nil, 0, 0)
	return f.await(p, o, v)
}

// PutInt64 writes an 8-byte little-endian word at loc. Blocking.
func (f *Fabric) PutInt64(p *sim.Proc, from int, loc Loc, v int64) {
	o, _ := f.start(from, loc, opPut64, nil, v, 0)
	f.await(p, o, 0)
}

// FetchAdd atomically adds delta to the 8-byte word at loc and returns the
// value it held before the addition ("fetch_and_add(L, v)"). Blocking.
func (f *Fabric) FetchAdd(p *sim.Proc, from int, loc Loc, delta int64) int64 {
	o, v := f.start(from, loc, opFetchAdd, nil, delta, 0)
	return f.await(p, o, v)
}

// CAS atomically compares the 8-byte word at loc with old and, if equal,
// replaces it with new. It returns the observed value (== old on success).
// Blocking.
func (f *Fabric) CAS(p *sim.Proc, from int, loc Loc, old, new int64) int64 {
	o, v := f.start(from, loc, opCAS, nil, old, new)
	return f.await(p, o, v)
}

// Segment is one rank's registered memory: a flat, growable byte array with
// a simple size-bucketed free-list allocator on top, plus a static zone of
// large never-freed allocations. All Segment methods are zero-cost in
// simulated time; they model the owner touching its own pinned memory.
type Segment struct {
	mem   []byte // dynamic zone backing, grown to the highest touched address
	bump  Addr
	pools map[int][]Addr // size -> free addresses (exact-size reuse)
	used  uint64         // bytes currently allocated
	high  uint64         // high-water mark of allocated bytes

	// Static zone: bump-only allocations at StaticBase and above, in address
	// order, each with its own backing.
	statics []static
	sbump   Addr
}

// static is one AllocStatic allocation: zone offsets [off, end) and the
// committed prefix of its bytes. A reservation costs host memory only up to
// the highest offset touched inside it, whatever lies in front of it.
type static struct {
	off, end uint64
	mem      []byte
}

// StaticBase is the first address of the static zone. Dynamic addresses
// are always far below it.
const StaticBase Addr = 1 << 40

func newSegment(size int) *Segment {
	// The declared size only seeds the dynamic zone's backing, between 64
	// bytes and 4 KiB; past that it grows on first touch (bytes), so
	// simulations with very many ranks pay host memory only for what each
	// rank actually uses.
	return &Segment{
		mem:   make([]byte, min(max(size, 64), 4*1024)),
		bump:  8, // keep address 0..7 unused so Addr 0 is invalid
		pools: make(map[int][]Addr),
	}
}

func (s *Segment) alloc(size int) Addr {
	if size <= 0 {
		panic("rdma: alloc of non-positive size")
	}
	// Round to 8 bytes so int64 fields are always aligned slots.
	size = (size + 7) &^ 7
	s.used += uint64(size)
	if s.used > s.high {
		s.high = s.used
	}
	if list := s.pools[size]; len(list) > 0 {
		a := list[len(list)-1]
		s.pools[size] = list[:len(list)-1]
		clear(s.bytes(a, size)) // bytes grows the backing if still untouched
		return a
	}
	a := s.bump
	s.bump += Addr(size)
	// Reserving is free: backing is committed on first access (see bytes).
	return a
}

func (s *Segment) allocStatic(size int) Addr {
	if size <= 0 {
		panic("rdma: alloc of non-positive size")
	}
	off := uint64(s.sbump)
	s.sbump += Addr((size + 7) &^ 7)
	s.statics = append(s.statics, static{off: off, end: uint64(s.sbump)})
	return StaticBase + Addr(off)
}

func (s *Segment) free(addr Addr, size int) {
	if addr == 0 {
		panic("rdma: free of nil address")
	}
	if addr >= StaticBase {
		panic("rdma: free of static allocation")
	}
	size = (size + 7) &^ 7
	s.used -= uint64(size)
	s.pools[size] = append(s.pools[size], addr)
}

// grown returns mem extended to cover end bytes: 1 KiB at least, then by
// doubling, never past limit. Bytes already written are carried over.
func grown(mem []byte, end, limit uint64) []byte {
	n := max(uint64(len(mem))*2, 1024)
	for n < end {
		n *= 2
	}
	nm := make([]byte, min(n, limit))
	copy(nm, mem)
	return nm
}

// bytes returns [addr, addr+n) as one contiguous slice of the backing that
// holds it — the dynamic zone's, or that of the one static allocation the
// range lies in — committing the backing up to addr+n on first touch. The
// slice is valid until that backing next grows.
func (s *Segment) bytes(addr Addr, n int) []byte {
	if addr == 0 {
		panic("rdma: access through nil address")
	}
	if addr >= StaticBase {
		off := uint64(addr - StaticBase)
		// A rank holds a handful of static allocations (lock queue, deque,
		// uni, evac): a scan beats any index.
		for i := range s.statics {
			a := &s.statics[i]
			if off >= a.end {
				continue
			}
			lo, hi := off-a.off, off-a.off+uint64(n)
			if hi > a.end-a.off {
				panic(fmt.Sprintf("rdma: static access [0x%x,+%d) runs off the end of allocation [0x%x,+%d)",
					uint64(addr), n, uint64(StaticBase)+a.off, a.end-a.off))
			}
			if hi > uint64(len(a.mem)) {
				a.mem = grown(a.mem, hi, a.end-a.off)
			}
			return a.mem[lo:hi:hi]
		}
		panic(fmt.Sprintf("rdma: static access [0x%x,+%d) is inside no allocation (static zone ends at 0x%x)",
			uint64(addr), n, uint64(StaticBase+s.sbump)))
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(s.bump) {
		panic(fmt.Sprintf("rdma: access [0x%x,+%d) beyond allocated segment space (%d bytes)", uint64(addr), n, uint64(s.bump)))
	}
	if end > uint64(len(s.mem)) {
		s.mem = grown(s.mem, end, uint64(StaticBase))
	}
	return s.mem[addr:end:end]
}

// apply performs one fabric operation's memory effect on the segment — the
// only place each of the six is written: a same-rank op calls it inline, a
// remote op's completion record at its completion instant. It returns the
// word it found (the result of get64, fetch-add and CAS).
func (s *Segment) apply(kind opKind, addr Addr, buf []byte, a, b int64) int64 {
	switch kind {
	case opGet:
		copy(buf, s.bytes(addr, len(buf)))
		return 0
	case opPut:
		copy(s.bytes(addr, len(buf)), buf)
		return 0
	}
	w := s.bytes(addr, 8)
	cur := int64(binary.LittleEndian.Uint64(w))
	switch kind {
	case opGet64:
		return cur
	case opFetchAdd:
		a += cur
	case opCAS:
		if cur != a {
			return cur
		}
		a = b
	}
	binary.LittleEndian.PutUint64(w, uint64(a)) // put64 writes a as given
	return cur
}

// Bytes exposes [addr, addr+n) of the segment for owner-local access. The
// slice aliases the backing of the zone (dynamic) or allocation (static) it
// lies in and is valid until that backing next grows, i.e. until an access
// reaches past everything touched there so far. Use it at once; hold one
// across a suspension only over a range that nothing can outgrow meanwhile.
func (s *Segment) Bytes(addr Addr, n int) []byte { return s.bytes(addr, n) }

// ReadInt64 reads a word locally (owner access, no simulated cost).
func (s *Segment) ReadInt64(addr Addr) int64 {
	return int64(binary.LittleEndian.Uint64(s.bytes(addr, 8)))
}

// WriteInt64 writes a word locally (owner access, no simulated cost).
func (s *Segment) WriteInt64(addr Addr, v int64) {
	binary.LittleEndian.PutUint64(s.bytes(addr, 8), uint64(v))
}

// InUse returns the number of bytes currently allocated.
func (s *Segment) InUse() uint64 { return s.used }

// HighWater returns the allocation high-water mark in bytes.
func (s *Segment) HighWater() uint64 { return s.high }

// Backing returns the host bytes committed behind the segment, both zones:
// what the rank costs the simulator, as opposed to what it has reserved.
func (s *Segment) Backing() uint64 {
	n := uint64(len(s.mem))
	for i := range s.statics {
		n += uint64(len(s.statics[i].mem))
	}
	return n
}
