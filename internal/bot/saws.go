package bot

import (
	"encoding/binary"

	"contsteal/internal/rdma"
	"contsteal/internal/sim"
)

// SAWS-like runtime: one-sided work stealing with a split task queue whose
// head and tail live in a single 8-byte word ("structured atomic
// operations"), steal-half victim policy, and token-ring termination
// detection with Mattern's four-counter method.
//
// A successful steal is three one-sided operations — read the packed
// metadata word, CAS it to claim half the queue, bulk-get the claimed
// tasks — which is why (like the paper's own runtime) this baseline keeps
// scaling where message-driven stealing stops (Fig. 8).

const sawsQueueCap = 1 << 16

// packed-word helpers: low 32 bits = head (steal side), high 32 = tail.
func packHT(head, tail uint32) int64 { return int64(uint64(head) | uint64(tail)<<32) }
func unpackHT(v int64) (head, tail uint32) {
	return uint32(uint64(v) & 0xFFFFFFFF), uint32(uint64(v) >> 32)
}

type sawsWorker struct {
	rank    int
	seg     *rdma.Segment // the worker's registered memory
	meta    rdma.Addr     // packed head|tail word
	tasks   rdma.Addr     // ring of sawsQueueCap task slots
	tokSlot rdma.Addr     // incoming token: {present, round, pushed, processed}
	done    rdma.Addr     // termination flag

	pushed    int64 // tasks created here (cumulative)
	processed int64 // tasks completed here (cumulative)
}

func (w *sawsWorker) metaLoc() rdma.Loc {
	return rdma.Loc{Rank: int32(w.rank), Addr: w.meta, Size: 8}
}

// slot returns the bytes of queue slot i.
func (w *sawsWorker) slot(i uint32) []byte {
	return w.seg.Bytes(w.tasks+rdma.Addr(int(i%sawsQueueCap)*TaskBytes), TaskBytes)
}

// enqueue appends t at the tail without charging time or counting it as
// newly created (arrivals and stolen tasks enter this way).
func (w *sawsWorker) enqueue(t Task) {
	h, tl := unpackHT(w.seg.ReadInt64(w.meta))
	if tl-h >= sawsQueueCap {
		panic("bot: SAWS queue overflow")
	}
	encodeTask(w.slot(tl), t)
	w.seg.WriteInt64(w.meta, packHT(h, tl+1))
}

// RunSAWS executes the workload under the SAWS-like runtime and returns its
// statistics.
func RunSAWS(cfg Config, root Task, expand Expand) Stats {
	r := newRun("saws", cfg)
	cfg = r.cfg
	st := &r.st
	fab := rdma.NewFabric(r.eng, cfg.Machine, cfg.Workers, 1<<20)
	ws := make([]*sawsWorker, cfg.Workers)
	for rank := range ws {
		ws[rank] = &sawsWorker{
			rank:    rank,
			seg:     fab.Seg(rank),
			meta:    fab.Alloc(rank, 8),
			tasks:   fab.AllocStatic(rank, sawsQueueCap*TaskBytes),
			tokSlot: fab.Alloc(rank, 32),
			done:    fab.Alloc(rank, 8),
		}
	}

	// Local (owner) queue operations: the owner manipulates the packed word
	// with local atomics.
	push := func(p *sim.Proc, w *sawsWorker, t Task) {
		w.enqueue(t)
		w.pushed++
		p.Sleep(cfg.Machine.LocalOp)
	}
	pop := func(p *sim.Proc, w *sawsWorker) (Task, bool) {
		p.Sleep(cfg.Machine.LocalOp)
		for {
			v := w.seg.ReadInt64(w.meta)
			h, tl := unpackHT(v)
			if h >= tl {
				return Task{}, false
			}
			// Local CAS to retract the tail against concurrent steals.
			if fab.CAS(p, w.rank, w.metaLoc(), v, packHT(h, tl-1)) == v {
				return decodeTask(w.slot(tl - 1)), true
			}
		}
	}
	steal := func(p *sim.Proc, thief, victim *sawsWorker) []Task {
		v := fab.GetInt64(p, thief.rank, victim.metaLoc())
		h, tl := unpackHT(v)
		if h >= tl {
			st.StealsFail++
			return nil
		}
		k := min(int(tl-h+1)/2, stealHalfMax)
		if fab.CAS(p, thief.rank, victim.metaLoc(), v, packHT(h+uint32(k), tl)) != v {
			st.StealsFail++
			return nil
		}
		// Bulk transfer of the claimed block (one large get).
		out := make([]Task, k)
		xfer, _ := cfg.Machine.OpDelay(thief.rank, victim.rank, k*TaskBytes, false)
		p.Sleep(xfer)
		for i := range out {
			out[i] = decodeTask(victim.slot(h + uint32(i)))
		}
		st.StealsOK++
		st.StolenTsks += uint64(k)
		return out
	}

	// The token travels by one-sided put into the next rank's slot:
	// [present][round][pushed][processed].
	sendToken := func(p *sim.Proc, from *sawsWorker, tk token) {
		next := ws[(from.rank+1)%cfg.Workers]
		var buf [32]byte
		binary.LittleEndian.PutUint64(buf[0:], 1)
		binary.LittleEndian.PutUint64(buf[8:], uint64(tk.round))
		binary.LittleEndian.PutUint64(buf[16:], uint64(tk.pushed))
		binary.LittleEndian.PutUint64(buf[24:], uint64(tk.processed))
		fab.Put(p, from.rank, rdma.Loc{Rank: int32(next.rank), Addr: next.tokSlot, Size: 32}, buf[:])
	}

	// Open-system mode: arrival timers write tasks straight into the target
	// worker's registered queue segment (the front-end's one-sided push).
	r.arm(func(a ServeArrival) { ws[a.Rank].enqueue(a.Task) })

	body := func(p *sim.Proc, w *sawsWorker) {
		rng := newRNG(cfg.Seed, w.rank)
		seg := w.seg
		if w.rank == 0 && r.sv == nil {
			push(p, w, root)
			sendToken(p, w, token{round: 1}) // inject the first token
		}
		for !r.drained() {
			if r.sv == nil && seg.ReadInt64(w.done) != 0 {
				// Binary-tree fan-out: mark children's done flags.
				for _, ch := range doneChildren(w.rank, cfg.Workers) {
					fab.PutInt64(p, w.rank, rdma.Loc{Rank: int32(ch), Addr: ws[ch].done, Size: 8}, 1)
				}
				return
			}
			// Forward the token only when idle (queue empty), so a clean
			// round implies a globally idle period.
			if r.sv == nil && seg.ReadInt64(w.tokSlot) != 0 {
				if h, tl := unpackHT(seg.ReadInt64(w.meta)); h >= tl {
					seg.WriteInt64(w.tokSlot, 0)
					next, done := r.ring.pass(w.rank, token{
						round:     seg.ReadInt64(w.tokSlot + 8),
						pushed:    seg.ReadInt64(w.tokSlot+16) + w.pushed,
						processed: seg.ReadInt64(w.tokSlot+24) + w.processed,
					})
					if done {
						seg.WriteInt64(w.done, 1)
						r.doneAt = p.Now()
					} else {
						sendToken(p, w, next)
					}
					continue
				}
			}
			if t, ok := pop(p, w); ok {
				p.Sleep(cfg.Machine.ComputeOn(w.rank, cfg.Work))
				children := expand(t)
				for _, child := range children {
					push(p, w, child)
				}
				w.processed++
				r.taskDone(t, len(children), p.Now())
				continue
			}
			if cfg.Workers > 1 {
				victim := ws[pickVictim(rng, w.rank, cfg.Workers)]
				if got := steal(p, w, victim); got != nil {
					// Stolen tasks re-enter a local queue without counting
					// as newly pushed.
					for _, t := range got {
						w.enqueue(t)
					}
					p.Sleep(cfg.Machine.LocalOp * sim.Time(len(got)))
					continue
				}
			}
			p.Sleep(500) // idle backoff between failed steals
		}
	}
	for _, w := range ws {
		r.eng.GoID(r.name, int64(w.rank), func(p *sim.Proc) { body(p, w) })
	}
	return r.finish()
}
