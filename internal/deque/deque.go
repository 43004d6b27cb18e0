// Package deque implements the per-worker task queue of the runtime as a
// double-ended queue in RDMA-registered memory, following the THE protocol
// (Frigo, Leiserson, Randall, PLDI '98) adapted to one-sided remote access,
// as assumed in §II of the paper.
//
// The owner pushes and pops at the bottom (LIFO); thieves steal from the
// top (FIFO), so the oldest task — expected to carry the most work — is
// always stolen. The owner's fast path touches only local memory; a thief
// drives the whole protocol with one-sided operations, as one chain (StealN)
// whose only parameter is how many entries k to take once it holds the lock:
//
//	fast empty check:  get (top, bottom)             1 op
//	lock:              CAS(lock, 0, 1)               1 op
//	recheck + read:    get (top, bottom), k× get entry
//	advance + unlock:  put top+k, put lock=0         2 ops
//
// Steal is the chain with k ≡ 1 — the paper's steal, roughly five remote
// operations per success, matching the ~20–30 µs successful-steal latencies
// in Table II once stack transfer is added; StealN lets the caller's take
// function choose k (steal-half). The lock serializes thieves against each
// other and against the owner's slow path, exactly as in Cilk's THE
// protocol; the owner acquires it only when the deque may be about to go
// empty (or, in Batch mode, on every pop).
//
// Entries are fixed-size byte records (the task descriptor that would sit in
// registered memory in the real system). Because a simulated thread's
// control state is a parked goroutine, each entry may also carry an opaque
// Go value (obj); a thief obtains it through the descriptor it just read,
// which is a zero-cost bookkeeping step in the simulator.
package deque

import (
	"fmt"

	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// header layout (byte offsets within the deque's block).
const (
	offTop    = 0
	offBottom = 8
	offLock   = 16
	headerLen = 24
)

// Stats counts deque events observed at one deque.
type Stats struct {
	StealsOK        uint64 // successful steal chains against this deque, one per chain whatever k
	StealsEmpty     uint64 // failed: deque observed empty
	StealsContended uint64 // failed: lost the lock race
	BatchSteals     uint64 // successful steals whose amount a take function chose
	BatchEntries    uint64 // entries taken across those steals
}

// Deque is one worker's task queue, resident in that worker's RDMA segment.
type Deque struct {
	fab       *rdma.Fabric
	mach      *topo.Machine
	rank      int
	entrySize int
	capacity  int

	base rdma.Addr // block: header + entries
	// objs holds the Go-side payloads of the live positions [top, bottom),
	// position pos at pos mod len(objs). It starts empty and doubles, up to
	// capacity, when a push would outgrow it (reserve), so a rank costs the
	// host the payloads it has queued, not the ring it may queue.
	objs    []any
	popBuf  []byte // the one buffer a pop copies its entry into (take)
	pushBuf []byte // the entry of the push in flight, copied when it starts
	steals  *steal // free list of steal-chain records

	// The owner-side operation in flight (there is at most one: the deque's
	// bottom end belongs to whoever occupies the worker): the proc it runs
	// as, what follows the lock, the pop and the push (nil for a blocking
	// caller, who picks a pop's result up from kept), the payload being
	// pushed, and the callbacks that carry it across its sleeps, bound once.
	owner                              *sim.Proc
	locked, pushed                     func()
	popped                             func(entry []byte, obj any, ok bool)
	kept                               popResult
	pushObj                            any
	onSpin, onPop, onPopLocked, onPush func()

	St Stats

	// Tr, when non-nil, receives the steal protocol's phase spans: one
	// victim-side span per chain link (hdr get, lock CAS, recheck, entry
	// read, top advance, unlock) plus one thief-side span covering the whole
	// protocol on success, all sharing a correlation ID. Nil by default.
	Tr obs.Tracer

	// Batch must be set (before any concurrent use) when thieves will take
	// more than one entry per steal (StealN) from this deque. THE's lock only
	// protects the top entry from the owner's lock-free fast-path Pop: a
	// batch thief claims slots top..top+k-1, and the owner could pop down
	// into that range from the bottom before the top+k advance lands. In
	// batch mode the owner therefore takes the lock on every Pop (the
	// split-queue model: the public region is lock-protected), serializing
	// owner pops against in-flight batch steals. Off by default so the
	// steal-one protocol keeps the paper's lock-free owner fast path.
	Batch bool
}

// New creates a deque with the given capacity (entries) and entry size
// (bytes) in rank's registered segment.
func New(fab *rdma.Fabric, rank, capacity, entrySize int) *Deque {
	d := &Deque{
		fab:       fab,
		mach:      fab.Mach,
		rank:      rank,
		entrySize: entrySize,
		capacity:  capacity,
		popBuf:    make([]byte, entrySize),
		pushBuf:   make([]byte, entrySize),
	}
	d.base = fab.AllocStatic(rank, headerLen+capacity*entrySize)
	d.onSpin, d.onPop, d.onPopLocked, d.onPush = d.lockSpin, d.pop, d.popLocked, d.push
	return d
}

// Rank returns the owning rank.
func (d *Deque) Rank() int { return d.rank }

func (d *Deque) loc(off int, size int) rdma.Loc {
	return rdma.Loc{Rank: int32(d.rank), Addr: d.base + rdma.Addr(off), Size: int32(size)}
}

// slotIndex maps a (possibly negative) position onto the ring.
func (d *Deque) slotIndex(pos int64) int { return ringIndex(pos, d.capacity) }

// objIndex maps a (possibly negative) position onto the payload ring.
func (d *Deque) objIndex(pos int64) int { return ringIndex(pos, len(d.objs)) }

func ringIndex(pos int64, n int) int {
	c := int64(n)
	return int(((pos % c) + c) % c)
}

// minObjs is the payload ring's first length.
const minObjs = 16

// reserve makes room in the payload ring for n live positions (owner only;
// n is at most capacity): it doubles the ring, up to capacity, and lays the
// live positions [top, bottom) out again at pos mod the new length. A thief's
// chain in flight takes its payloads before it advances top (readNext), so
// every payload still to be handed over sits at or above the published top
// and moves with the ring.
func (d *Deque) reserve(n int) {
	if n <= len(d.objs) {
		return
	}
	size := max(len(d.objs), minObjs)
	for size < n {
		size *= 2
	}
	objs := make([]any, min(size, d.capacity))
	for pos := d.top(); pos < d.bottom(); pos++ {
		objs[ringIndex(pos, len(objs))] = d.objs[d.objIndex(pos)]
	}
	d.objs = objs
}

func (d *Deque) entryOff(slot int64) int {
	return headerLen + d.slotIndex(slot)*d.entrySize
}

// seg is the owner's direct view of its own segment.
func (d *Deque) seg() *rdma.Segment { return d.fab.Seg(d.rank) }

func (d *Deque) top() int64     { return d.seg().ReadInt64(d.base + offTop) }
func (d *Deque) bottom() int64  { return d.seg().ReadInt64(d.base + offBottom) }
func (d *Deque) setTop(v int64) { d.seg().WriteInt64(d.base+offTop, v) }
func (d *Deque) setBot(v int64) { d.seg().WriteInt64(d.base+offBottom, v) }

// Len returns the number of queued entries (owner view, zero cost).
func (d *Deque) Len() int { return int(d.bottom() - d.top()) }

// lockThen spins on the local lock word as p, then runs locked (which may be
// nil) — at once if the lock is free. Thief lock holds are a handful of
// microseconds, so bounded retries with a small local backoff suffice.
func (d *Deque) lockThen(p *sim.Proc, locked func()) {
	d.owner, d.locked = p, locked
	d.lockSpin()
}

func (d *Deque) lockSpin() {
	if d.fab.CAS(d.owner, d.rank, d.loc(offLock, 8), 0, 1) != 0 {
		d.owner.SleepThen(d.mach.LocalOp+100, d.onSpin)
		return
	}
	if d.locked != nil {
		d.locked()
	}
}

// ownerLock is lockThen for a blocking caller.
func (d *Deque) ownerLock(p *sim.Proc) {
	d.lockThen(p, nil)
	p.Await()
}

func (d *Deque) ownerUnlock() {
	d.seg().WriteInt64(d.base+offLock, 0)
}

// PushThen appends an entry at the bottom (owner only) in continuation form
// (see sim.Proc.SleepThen): it charges the push to p, then publishes the
// entry and runs pushed inside event dispatch, with p running — a nil pushed
// ends the push there, for a caller blocked in Await. The descriptor bytes
// must be exactly New's entrySize long; they are copied at once, so entry may
// be reused (it may be the pop buffer). obj rides along for the simulator.
func (d *Deque) PushThen(p *sim.Proc, entry []byte, obj any, pushed func()) {
	if len(entry) != d.entrySize {
		panic(fmt.Sprintf("deque: push of %d-byte entry, want %d", len(entry), d.entrySize))
	}
	// Charge the cost first, publish second: the entry becomes visible to
	// thieves atomically at the end of the push, so the owner cannot be
	// interrupted between publishing and its next action.
	copy(d.pushBuf, entry)
	d.pushObj, d.pushed = obj, pushed
	p.SleepThen(d.mach.LocalOp, d.onPush)
}

func (d *Deque) push() {
	b := d.bottom()
	n := int(b-d.top()) + 1
	if n > d.capacity {
		panic(fmt.Sprintf("deque: rank %d queue overflow (cap %d)", d.rank, d.capacity))
	}
	d.reserve(n)
	off := d.entryOff(b)
	copy(d.seg().Bytes(d.base+rdma.Addr(off), d.entrySize), d.pushBuf)
	d.objs[d.objIndex(b)] = d.pushObj
	d.setBot(b + 1)
	pushed := d.pushed
	d.pushObj, d.pushed = nil, nil
	if pushed != nil {
		pushed()
	}
}

// Push is PushThen for a blocking caller.
func (d *Deque) Push(p *sim.Proc, entry []byte, obj any) {
	d.PushThen(p, entry, obj, nil)
	p.Await()
}

// PushTop inserts an entry at the top — the steal (FIFO) end — so it runs
// after every other queued task locally and is the first candidate for
// thieves. Used by Yield. Owner only; takes the lock because the top end is
// shared with thieves.
func (d *Deque) PushTop(p *sim.Proc, entry []byte, obj any) {
	if len(entry) != d.entrySize {
		panic(fmt.Sprintf("deque: push of %d-byte entry, want %d", len(entry), d.entrySize))
	}
	p.Sleep(d.mach.LocalOp)
	d.ownerLock(p)
	t := d.top() - 1
	n := int(d.bottom() - t)
	if n > d.capacity {
		d.ownerUnlock()
		panic(fmt.Sprintf("deque: rank %d queue overflow (cap %d)", d.rank, d.capacity))
	}
	d.reserve(n)
	off := d.entryOff(t)
	copy(d.seg().Bytes(d.base+rdma.Addr(off), d.entrySize), entry)
	d.objs[d.objIndex(t)] = obj
	d.setTop(t)
	d.ownerUnlock()
}

// PopThen removes the bottom entry (owner only, LIFO) in continuation form
// (see sim.Proc.SleepThen): it charges the pop to p and hands the entry to
// popped, inside event dispatch, with p running. The entry is the deque's one
// pop buffer: it is valid until the owner's next operation on this deque.
// Following THE, the owner optimistically decrements bottom and only takes
// the lock when it may race with a thief on the last entry — or, in Batch
// mode, always, so a StealN thief's claimed range can never be popped out
// from under it. With a nil popped the result stays in the deque for the
// caller, blocked in Await.
func (d *Deque) PopThen(p *sim.Proc, popped func(entry []byte, obj any, ok bool)) {
	d.owner, d.popped = p, popped
	p.SleepThen(d.mach.LocalOp, d.onPop)
}

func (d *Deque) pop() {
	if !d.Batch {
		b := d.bottom() - 1
		d.setBot(b)
		if d.top() < b {
			entry, obj := d.take(b)
			d.handOver(entry, obj, true)
			return
		}
		// Zero or one entry left: a thief may be racing for the same slot,
		// so restore bottom and resolve under the lock (THE slow path).
		d.setBot(b + 1)
	}
	d.lockThen(d.owner, d.onPopLocked)
}

func (d *Deque) popLocked() {
	b := d.bottom() - 1
	if d.top() > b {
		// Empty for sure.
		d.ownerUnlock()
		d.handOver(nil, nil, false)
		return
	}
	d.setBot(b)
	entry, obj := d.take(b)
	d.ownerUnlock()
	d.handOver(entry, obj, true)
}

// popResult is what a pop hands over.
type popResult struct {
	entry []byte
	obj   any
	ok    bool
}

func (d *Deque) handOver(entry []byte, obj any, ok bool) {
	if d.popped != nil {
		d.popped(entry, obj, ok)
		return
	}
	d.kept = popResult{entry, obj, ok}
}

// Pop is PopThen for a blocking caller: it returns the bottom entry, valid
// until the owner's next operation on this deque (see PopThen).
func (d *Deque) Pop(p *sim.Proc) ([]byte, any, bool) {
	d.PopThen(p, nil)
	p.Await()
	r := d.kept
	d.kept = popResult{}
	return r.entry, r.obj, r.ok
}

// take reads position pos out into the pop buffer and clears its obj
// reference (no simulated cost — owner-local access; callers charge costs).
func (d *Deque) take(pos int64) ([]byte, any) {
	off := d.entryOff(pos)
	copy(d.popBuf, d.seg().Bytes(d.base+rdma.Addr(off), d.entrySize))
	i := d.objIndex(pos)
	obj := d.objs[i]
	d.objs[i] = nil
	return d.popBuf, obj
}

// Steal removes and returns the top entry on behalf of a remote thief
// (FIFO): the steal chain taking exactly one entry.
func (d *Deque) Steal(p *sim.Proc, thiefRank int) ([]byte, any, bool) {
	entries, objs, ok := d.StealN(p, thiefRank, nil)
	if !ok {
		return nil, nil, false
	}
	return entries[0], objs[0], true
}

// StealNThen is the deque's one steal chain, in continuation form (see
// sim.Proc.SleepThen): it removes up to take(available) entries from the top
// (FIFO) on behalf of a remote thief and hands them to then, inside event
// dispatch, with p running. The full one-sided protocol is driven from
// thiefRank's side and charged to p as a single completion chain: every
// sub-operation's memory access fires at the same virtual instant as in a
// blocking formulation, but the thief's proc is woken only once for the whole
// protocol — and a failed attempt whose then suspends p again never reaches
// p's goroutine at all:
//
//	fast empty check:  get (top, bottom)             1 op
//	lock:              CAS(lock, 0, 1)               1 op
//	recheck:           get (top, bottom)             1 op
//	read:              get entry × k                 k ops
//	advance + unlock:  put top+k, put lock=0         2 ops
//
// take is called once, under the lock, with the rechecked entry count; its
// result k is clamped to [1, available]. Entries come back oldest-first (slot
// order top..top+k-1) in slices the caller owns. A nil take is the plain
// steal of one entry. A failure reports whether the deque looked empty or the
// lock was contended via the deque's stats (StealsEmpty/StealsContended); a
// success counts once in StealsOK whatever k was and, when the caller chose
// the amount (take != nil), as one BatchSteals of k BatchEntries.
func (d *Deque) StealNThen(p *sim.Proc, thiefRank int, take func(avail int64) int64, then func(entries [][]byte, objs []any, ok bool)) {
	d.startSteal(p, thiefRank, take, then)
}

// StealN is StealNThen for a blocking caller: it returns what was stolen.
func (d *Deque) StealN(p *sim.Proc, thiefRank int, take func(avail int64) int64) ([][]byte, []any, bool) {
	s := d.startSteal(p, thiefRank, take, nil)
	p.Await()
	return s.finish()
}

// startSteal issues a steal chain and returns its record. The chain's end
// hands the results to then; with a nil then it leaves them in the record for
// the caller, blocked in Await, to finish.
func (d *Deque) startSteal(p *sim.Proc, thiefRank int, take func(avail int64) int64, then func(entries [][]byte, objs []any, ok bool)) *steal {
	s := d.steals
	if s == nil {
		s = newSteal(d)
	} else {
		d.steals = s.next
	}
	s.c, s.thief, s.take, s.then = d.fab.Eng.NewChain(p), thiefRank, take, then
	if s.tr = d.Tr; s.tr != nil {
		s.sid = s.tr.Seq()
		s.t0 = d.fab.Eng.Now()
		s.ph = s.t0
	}
	// Fast empty check: one 16-byte get of (top, bottom).
	d.fab.GetAsync(thiefRank, d.loc(offTop, 16), s.hdr[:], s.onHdr)
	s.c.WaitThen(s.onDone)
	return s
}

// steal is the state of one StealN chain in flight: the header buffer the
// gets land in, the claimed range, the results, and the trace phase clock.
// Records are pooled on the victim deque (an intrusive free list, like the
// engine's chains) with the chain's link callbacks bound once, so an attempt
// allocates only what it hands to the caller — a failed one nothing.
type steal struct {
	d     *Deque
	c     *sim.Chain
	thief int
	take  func(avail int64) int64

	hdr     [16]byte
	t, k, i int64 // top under the lock, entries claimed, entries read so far
	entries [][]byte
	objs    []any
	ok      bool

	// Tracing: each chain link becomes a victim-side phase span; all spans
	// of one protocol instance share the correlation id sid.
	tr     obs.Tracer
	sid    int64
	t0, ph sim.Time

	then func(entries [][]byte, objs []any, ok bool)

	onHdr, onRecheck, onEmpty, onRead, onAdvance, onUnlock, onDone func()
	onLock                                                         func(observed int64)

	next *steal // Deque free list
}

func newSteal(d *Deque) *steal {
	s := &steal{d: d}
	s.onHdr, s.onLock, s.onRecheck, s.onEmpty = s.hdrRead, s.locked, s.rechecked, s.emptyUnlocked
	s.onRead, s.onAdvance, s.onUnlock, s.onDone = s.entryRead, s.advanced, s.unlocked, s.done
	return s
}

// done runs as the thief's proc once the chain has completed.
func (s *steal) done() {
	if then := s.then; then != nil {
		then(s.finish())
	}
}

// finish hands the results to the caller and returns the record to the pool.
func (s *steal) finish() ([][]byte, []any, bool) {
	entries, objs, ok := s.entries, s.objs, s.ok
	// Reset the record, not its results: those now belong to the caller.
	s.c, s.take, s.then, s.tr, s.entries, s.objs, s.ok = nil, nil, nil, nil, nil, nil, false
	s.next, s.d.steals = s.d.steals, s
	return entries, objs, ok
}

// phase closes the victim-side span of the link that just completed.
func (s *steal) phase(k obs.Kind) {
	if s.tr == nil {
		return
	}
	now := s.d.fab.Eng.Now()
	s.tr.Event(obs.Event{T: s.ph, Dur: now - s.ph, Rank: s.d.rank, Kind: k, Task: -1, Peer: s.thief, ID: s.sid})
	s.ph = now
}

func (s *steal) lockLoc() rdma.Loc { return s.d.loc(offLock, 8) }

// avail decodes the (top, bottom) header the last get fetched: it records
// top and returns the number of entries between the two.
func (s *steal) avail() int64 {
	s.t = int64(le(s.hdr[0:8]))
	return int64(le(s.hdr[8:16])) - s.t
}

func (s *steal) hdrRead() {
	s.phase(obs.KindDequeHdr)
	if s.avail() <= 0 {
		s.d.St.StealsEmpty++
		s.c.Complete()
		return
	}
	s.d.fab.CASAsync(s.thief, s.lockLoc(), 0, 1, s.onLock)
}

func (s *steal) locked(observed int64) {
	s.phase(obs.KindDequeCAS)
	if observed != 0 {
		s.d.St.StealsContended++
		s.c.Complete()
		return
	}
	// Recheck under the lock.
	s.d.fab.GetAsync(s.thief, s.d.loc(offTop, 16), s.hdr[:], s.onRecheck)
}

func (s *steal) rechecked() {
	s.phase(obs.KindDequeRecheck)
	n := s.avail()
	if n <= 0 {
		s.d.fab.PutInt64Async(s.thief, s.lockLoc(), 0, s.onEmpty)
		return
	}
	s.k = 1
	if s.take != nil {
		s.k = min(max(s.take(n), 1), n)
	}
	s.entries = make([][]byte, s.k)
	s.i = 0
	s.readNext()
}

func (s *steal) emptyUnlocked() {
	s.phase(obs.KindDequeUnlock)
	s.d.St.StealsEmpty++
	s.c.Complete()
}

// readNext reads the k oldest descriptors, oldest-first, as one get per entry
// (the real protocol could coalesce contiguous slots, but the ring may wrap
// and per-entry gets keep the timing model honest about the widened read
// phase), then advances top past the batch. The payloads are handed over
// (simulator bookkeeping) just before the advance is issued: until it lands
// the claimed positions are at or above the published top, which the owner
// neither pops under the lock nor reuses, and which a growing payload ring
// carries along.
func (s *steal) readNext() {
	d := s.d
	if s.i == s.k {
		s.objs = make([]any, s.k)
		for j := range s.objs {
			i := d.objIndex(s.t + int64(j))
			s.objs[j] = d.objs[i]
			d.objs[i] = nil
		}
		d.fab.PutInt64Async(s.thief, d.loc(offTop, 8), s.t+s.k, s.onAdvance)
		return
	}
	s.entries[s.i] = make([]byte, d.entrySize)
	d.fab.GetAsync(s.thief, d.loc(d.entryOff(s.t+s.i), d.entrySize), s.entries[s.i], s.onRead)
}

func (s *steal) entryRead() {
	s.phase(obs.KindDequeRead)
	s.i++
	s.readNext()
}

func (s *steal) advanced() {
	s.phase(obs.KindDequeAdvance)
	s.d.fab.PutInt64Async(s.thief, s.lockLoc(), 0, s.onUnlock)
}

func (s *steal) unlocked() {
	s.phase(obs.KindDequeUnlock)
	d := s.d
	s.ok = true
	d.St.StealsOK++
	if s.take != nil {
		d.St.BatchSteals++
		d.St.BatchEntries += uint64(s.k)
	}
	if s.tr != nil {
		s.tr.Event(obs.Event{
			T: s.t0, Dur: d.fab.Eng.Now() - s.t0, Rank: s.thief,
			Kind: obs.KindDequeSteal, Task: -1, Peer: d.rank,
			Size: s.k * int64(d.entrySize), ID: s.sid,
		})
	}
	s.c.Complete()
}

func le(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
