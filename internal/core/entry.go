package core

import (
	"encoding/binary"

	"contsteal/internal/rdma"
	"contsteal/internal/sim"
)

// ---------------------------------------------------------------------------
// Thread entries (remote objects used for join synchronization, §III-A)
//
// Single-consumer entry (fork-join and one-consumer futures, Fig. 3/4):
//
//	off  0  flag    int64  — 0 until completion; greedy join races on it
//	off  8  ctxloc  Loc    — location of the joiner's saved context (greedy)
//	off 24  retval  [R]byte
//
// Multi-consumer entry (futures with a fixed consumer count C, §V-D):
//
//	off  0  done     int64 — set to 1 by DIE
//	off  8  slotctr  int64 — fetch-and-add slot claim counter for waiters
//	off 16  consumed int64 — joiners count up; the C-th frees the entry
//	off 24  slots    C × { state int64; ctxloc Loc } (24 bytes each)
//	off 24+24C retval [R]byte
//
// The per-slot state word resolves the suspend/complete race without a
// global atomic: a waiter fetch-and-adds +1 after writing its ctxloc and
// parks only if it observed 0; DIE fetch-and-adds +2 on every slot and
// resumes the waiter only if it observed 1. Whoever loses the per-slot race
// learns it atomically and proceeds without blocking.
// ---------------------------------------------------------------------------

const (
	seFlag   = 0
	seCtxloc = 8
	seRetval = 24

	meDone     = 0
	meSlotCtr  = 8
	meConsumed = 16
	meSlots    = 24
	slotStride = 24
)

func singleEntrySize(retvalBytes int) int { return 24 + retvalBytes }

func multiEntrySize(consumers, retvalBytes int) int {
	return meSlots + slotStride*consumers + retvalBytes
}

// Handle identifies a spawned task: the location of its thread entry plus
// the declared number of consumers (1 for plain fork-join). Handles are
// plain values and may be passed to any task, including across workers —
// this is what makes the runtime's tasks general futures.
type Handle struct {
	E         rdma.Loc
	Consumers int32
}

// Valid reports whether the handle refers to a spawned task.
func (h Handle) Valid() bool { return h.E.Valid() }

// HandleBytes is the wire size of an encoded Handle.
const HandleBytes = rdma.LocSize + 4

// Encode serializes the handle into buf (at least HandleBytes long).
func (h Handle) Encode(buf []byte) {
	rdma.EncodeLoc(buf, h.E)
	binary.LittleEndian.PutUint32(buf[rdma.LocSize:], uint32(h.Consumers))
}

// DecodeHandle reads a handle back from buf.
func DecodeHandle(buf []byte) Handle {
	return Handle{
		E:         rdma.DecodeLoc(buf),
		Consumers: int32(binary.LittleEndian.Uint32(buf[rdma.LocSize:])),
	}
}

// field returns the location of a fixed-size field inside an entry.
func field(e rdma.Loc, off, size int) rdma.Loc {
	return rdma.Loc{Rank: e.Rank, Addr: e.Addr + rdma.Addr(off), Size: int32(size)}
}

func (rt *Runtime) retvalLoc(h Handle) rdma.Loc {
	r := rt.cfg.RetvalBytes
	if h.Consumers <= 1 {
		return field(h.E, seRetval, r)
	}
	return field(h.E, meSlots+slotStride*int(h.Consumers), r)
}

// entrySize is the size of the thread entry of a task joined by consumers
// tasks.
func (rt *Runtime) entrySize(consumers int) int {
	if consumers > 1 {
		return multiEntrySize(consumers, rt.cfg.RetvalBytes)
	}
	return singleEntrySize(rt.cfg.RetvalBytes)
}

// ctxObjBytes is the size of a saved-context remote object: in the real
// system the callee-saved register set plus stack metadata; here the thread
// id plus padding to a realistic size.
const ctxObjBytes = 64

// saveContext allocates a context object on w describing thread t and
// returns its location. Owner-local writes only. The runtime holds t by id
// until loadContext reads the context (or the joiner frees it unread).
func (w *Worker) saveContext(p *sim.Proc, t *Thread) rdma.Loc {
	c := w.rt.objs.Alloc(p, w.rank, ctxObjBytes)
	w.rt.fab.Seg(w.rank).WriteInt64(c.Addr, t.id)
	w.rt.saved[t.id] = t
	return c
}

// loadContext resolves a context object fetched from loc into its thread.
// The caller has already paid for the get of the context bytes.
func (rt *Runtime) loadContext(buf []byte) *Thread {
	id := int64(binary.LittleEndian.Uint64(buf))
	t := rt.saved[id]
	delete(rt.saved, id)
	return t
}

// ---------------------------------------------------------------------------
// Deque descriptors
//
// Continuation-stealing deques use fixed 32-byte descriptors:
//
//	off  0  kind      (entCont: a continuation; entResume: a suspended
//	                   thread made runnable by a multi-consumer future)
//	off  8  thread id
//	off 16  stack virtual address
//	off 24  stack size
//
// Child-stealing deques use childTaskBytes-byte descriptors ("a function
// pointer and its arguments", §II-A); only the kind and task id are
// meaningful, the rest stands in for the serialized arguments.
// ---------------------------------------------------------------------------

const contEntrySize = 32

const (
	entCont   = 1
	entResume = 2
	entChild  = 3
)

// childTask is a not-yet-started child-stealing task. reqTag is the serve
// request tag inherited from the spawner (request ID + 1; 0 = closed
// system); it rides alongside the encoded deque entry like fn and hdl do,
// so the wire layout is unchanged.
type childTask struct {
	fn     TaskFunc
	hdl    Handle
	id     int64
	reqTag int64
}

func encodeContEntry(buf []byte, kind int64, t *Thread) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(kind))
	binary.LittleEndian.PutUint64(buf[8:], uint64(t.id))
	binary.LittleEndian.PutUint64(buf[16:], uint64(t.stackAddr))
	binary.LittleEndian.PutUint64(buf[24:], uint64(t.stackSize))
}

func encodeChildEntry(buf []byte, ct *childTask) {
	binary.LittleEndian.PutUint64(buf[0:], entChild)
	binary.LittleEndian.PutUint64(buf[8:], uint64(ct.id))
}

func entryKind(buf []byte) int64 {
	return int64(binary.LittleEndian.Uint64(buf))
}
