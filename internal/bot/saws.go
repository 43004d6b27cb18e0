package bot

import (
	"encoding/binary"
	"fmt"

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
	fab     *rdma.Fabric
	meta    rdma.Addr // packed head|tail word
	tasks   rdma.Addr // ring of sawsQueueCap task slots
	tokSlot rdma.Addr // incoming token: {present, round, pushed, processed}
	done    rdma.Addr // termination flag

	pushed    int64 // tasks created here (cumulative)
	processed int64 // tasks completed here (cumulative)
}

func (w *sawsWorker) metaLoc() rdma.Loc {
	return rdma.Loc{Rank: int32(w.rank), Addr: w.meta, Size: 8}
}

func (w *sawsWorker) taskSlot(i uint32) rdma.Addr {
	return w.tasks + rdma.Addr(int(i%sawsQueueCap)*TaskBytes)
}

func putTask(seg *rdma.Segment, addr rdma.Addr, t Task) {
	b := seg.Bytes(addr, TaskBytes)
	copy(b[:20], t.Desc[:])
	binary.LittleEndian.PutUint32(b[20:], uint32(t.Depth))
}

func getTask(b []byte) Task {
	var t Task
	copy(t.Desc[:], b[:20])
	t.Depth = int32(binary.LittleEndian.Uint32(b[20:]))
	return t
}

// RunSAWS executes the workload under the SAWS-like runtime and returns its
// statistics.
func RunSAWS(cfg Config, root Task, expand Expand) Stats {
	cfg.defaults()
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, cfg.Machine, cfg.Workers, 1<<20)
	ws := make([]*sawsWorker, cfg.Workers)
	for r := range ws {
		ws[r] = &sawsWorker{
			rank:    r,
			fab:     fab,
			meta:    fab.Alloc(r, 8),
			tasks:   fab.AllocStatic(r, sawsQueueCap*TaskBytes),
			tokSlot: fab.Alloc(r, 32),
			done:    fab.Alloc(r, 8),
		}
	}
	var st Stats
	var lastTask sim.Time
	var doneAt sim.Time

	// Local (owner) queue operations: the owner manipulates the packed word
	// with local atomics.
	push := func(p *sim.Proc, w *sawsWorker, t Task) {
		h, tl := unpackHT(fab.Seg(w.rank).ReadInt64(w.meta))
		if tl-h >= sawsQueueCap {
			panic("bot: SAWS queue overflow")
		}
		putTask(fab.Seg(w.rank), w.taskSlot(tl), t)
		fab.Seg(w.rank).WriteInt64(w.meta, packHT(h, tl+1))
		w.pushed++
		p.Sleep(cfg.Machine.LocalOp)
	}
	pop := func(p *sim.Proc, w *sawsWorker) (Task, bool) {
		p.Sleep(cfg.Machine.LocalOp)
		for {
			v := fab.Seg(w.rank).ReadInt64(w.meta)
			h, tl := unpackHT(v)
			if h >= tl {
				return Task{}, false
			}
			// Local CAS to retract the tail against concurrent steals.
			if fab.CAS(p, w.rank, w.metaLoc(), v, packHT(h, tl-1)) == v {
				b := fab.Seg(w.rank).Bytes(w.taskSlot(tl-1), TaskBytes)
				return getTask(b), true
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
		for i := 0; i < k; i++ {
			b := fab.Seg(victim.rank).Bytes(victim.taskSlot(h+uint32(i)), TaskBytes)
			out[i] = getTask(b)
		}
		st.StealsOK++
		st.StolenTsks += uint64(k)
		return out
	}

	// Token ring (rank r forwards to (r+1) mod P). Slot layout:
	// [present][round][pushed][processed].
	tok := func(w *sawsWorker) []int64 {
		seg := fab.Seg(w.rank)
		return []int64{
			seg.ReadInt64(w.tokSlot), seg.ReadInt64(w.tokSlot + 8),
			seg.ReadInt64(w.tokSlot + 16), seg.ReadInt64(w.tokSlot + 24),
		}
	}
	sendToken := func(p *sim.Proc, from *sawsWorker, round, pushed, processed int64) {
		next := ws[(from.rank+1)%cfg.Workers]
		var buf [32]byte
		binary.LittleEndian.PutUint64(buf[0:], 1)
		binary.LittleEndian.PutUint64(buf[8:], uint64(round))
		binary.LittleEndian.PutUint64(buf[16:], uint64(pushed))
		binary.LittleEndian.PutUint64(buf[24:], uint64(processed))
		fab.Put(p, from.rank, rdma.Loc{Rank: int32(next.rank), Addr: next.tokSlot, Size: 32}, buf[:])
	}
	var prevPushed, prevProcessed int64 = -1, -1
	broadcastDone := func(p *sim.Proc, w *sawsWorker) {
		// Binary-tree fan-out: mark children's done flags.
		for _, ch := range []int{2*w.rank + 1, 2*w.rank + 2} {
			if ch < cfg.Workers {
				fab.PutInt64(p, w.rank, rdma.Loc{Rank: int32(ch), Addr: ws[ch].done, Size: 8}, 1)
			}
		}
	}

	// Open-system mode: arrival timers write tasks straight into the target
	// worker's registered queue segment (the front-end's one-sided push);
	// the token ring never starts and drain is detected structurally.
	var sv *serveState
	if cfg.Serve != nil {
		sv = newServeState(cfg.Serve)
		sv.arm(eng, func(a ServeArrival) {
			w := ws[a.Rank]
			seg := fab.Seg(w.rank)
			h, tl := unpackHT(seg.ReadInt64(w.meta))
			if tl-h >= sawsQueueCap {
				panic("bot: SAWS serve queue overflow")
			}
			putTask(seg, w.taskSlot(tl), a.Task)
			seg.WriteInt64(w.meta, packHT(h, tl+1))
		})
	}

	body := func(w *sawsWorker) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			rng := newRNG(cfg.Seed, w.rank)
			if w.rank == 0 && sv == nil {
				push(p, w, root)
				sendToken(p, w, 1, 0, 0) // inject the first token
			}
			for {
				seg := fab.Seg(w.rank)
				if sv != nil {
					if sv.finished {
						return
					}
				} else if seg.ReadInt64(w.done) != 0 {
					broadcastDone(p, w)
					return
				}
				// Forward the token only when idle (queue empty), so a
				// clean round implies a globally idle period.
				if tk := tok(w); sv == nil && tk[0] != 0 {
					h, tl := unpackHT(seg.ReadInt64(w.meta))
					if h >= tl {
						seg.WriteInt64(w.tokSlot, 0)
						round, pd, pr := tk[1], tk[2]+w.pushed, tk[3]+w.processed
						if w.rank == 0 {
							if round > 1 && pd == pr && pd == prevPushed && pr == prevProcessed {
								seg.WriteInt64(w.done, 1)
								doneAt = p.Now()
								continue
							}
							prevPushed, prevProcessed = pd, pr
							sendToken(p, w, round+1, 0, 0)
							continue
						}
						sendToken(p, w, round, pd, pr)
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
					st.Tasks++
					lastTask = p.Now()
					if sv != nil {
						sv.taskDone(t, len(children), p.Now())
					}
					continue
				}
				if cfg.Workers > 1 {
					victim := ws[pickVictim(rng, w.rank, cfg.Workers)]
					if got := steal(p, w, victim); got != nil {
						for _, t := range got {
							// Stolen tasks re-enter a local queue without
							// counting as newly pushed.
							h, tl := unpackHT(seg.ReadInt64(w.meta))
							putTask(seg, w.taskSlot(tl), t)
							seg.WriteInt64(w.meta, packHT(h, tl+1))
						}
						p.Sleep(cfg.Machine.LocalOp * sim.Time(len(got)))
						continue
					}
				}
				p.Sleep(500) // idle backoff between failed steals
			}
		}
	}
	for _, w := range ws {
		eng.GoID("saws", int64(w.rank), body(w))
	}
	end := eng.Run(serveUntil(cfg))
	if eng.Live() > 0 {
		eng.Shutdown()
		if !sv.horizonCut(end) {
			panic(fmt.Sprintf("bot: SAWS did not terminate by %v", cfg.MaxTime))
		}
	}
	st.Exec = end
	if doneAt > lastTask {
		st.TermDelay = doneAt - lastTask
	}
	return st
}
