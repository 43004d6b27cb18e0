package bot

import (
	"encoding/binary"
	"fmt"

	"contsteal/internal/msg"
	"contsteal/internal/sim"
)

// Charm++-like runtime: message-driven two-sided work stealing. An idle
// worker sends a steal request; the victim only notices it when it polls
// between tasks, so every steal costs a full round trip *plus* the victim's
// polling delay and handler time — the structural cost of two-sided work
// stealing that limits scalability in Fig. 8.
//
// Termination is detected with the same token-based four-counter scheme as
// the SAWS-like runtime, but the token is itself a message and advances
// only as fast as workers poll.

const (
	cmStealReq = iota + 1
	cmWork
	cmNoWork
	cmToken
	cmDone
)

func encodeTasks(ts []Task) []byte {
	buf := make([]byte, len(ts)*TaskBytes)
	for i, t := range ts {
		copy(buf[i*TaskBytes:], t.Desc[:])
		binary.LittleEndian.PutUint32(buf[i*TaskBytes+20:], uint32(t.Depth))
	}
	return buf
}

func decodeTasks(buf []byte) []Task {
	ts := make([]Task, len(buf)/TaskBytes)
	for i := range ts {
		copy(ts[i].Desc[:], buf[i*TaskBytes:])
		ts[i].Depth = int32(binary.LittleEndian.Uint32(buf[i*TaskBytes+20:]))
	}
	return ts
}

// RunCharm executes the workload under the Charm++-like message-driven
// runtime.
func RunCharm(cfg Config, root Task, expand Expand) Stats {
	cfg.defaults()
	eng := sim.NewEngine()
	net := msg.New(eng, cfg.Machine, cfg.Workers)
	var st Stats
	var lastTask, doneAt sim.Time

	type workerState struct {
		q            localQueue
		pushed       int64
		processed    int64
		waitingReply bool
		token        *msg.Msg // held termination token (forwarded when idle)
		done         bool
	}
	states := make([]*workerState, cfg.Workers)
	for i := range states {
		states[i] = &workerState{}
	}
	var prevPushed, prevProcessed int64 = -1, -1

	// Open-system mode: arrivals land directly in the target worker's local
	// queue (the front-end's incoming-work message); the termination token
	// never circulates and drain is detected structurally.
	var sv *serveState
	if cfg.Serve != nil {
		sv = newServeState(cfg.Serve)
		sv.arm(eng, func(a ServeArrival) {
			states[a.Rank].q.push(a.Task)
		})
	}

	body := func(rank int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			s := states[rank]
			rng := newRNG(cfg.Seed, rank)
			if rank == 0 && sv == nil {
				s.q.push(root)
				s.pushed++
				net.Send(p, 0, (rank+1)%cfg.Workers, msg.Msg{Kind: cmToken, A: 1, Data: make([]byte, 16)})
			}
			handle := func(m msg.Msg) {
				st.Msgs++
				switch m.Kind {
				case cmStealReq:
					if s.q.len() > 1 {
						k := min(s.q.len()/2, stealHalfMax)
						ts := s.q.popOldest(k)
						net.Send(p, rank, m.From, msg.Msg{Kind: cmWork, Data: encodeTasks(ts)})
						st.StealsOK++
						st.StolenTsks += uint64(k)
					} else {
						net.Send(p, rank, m.From, msg.Msg{Kind: cmNoWork})
						st.StealsFail++
					}
				case cmWork:
					for _, t := range decodeTasks(m.Data) {
						s.q.push(t)
					}
					s.waitingReply = false
				case cmNoWork:
					s.waitingReply = false
				case cmToken:
					// Hold the token while busy; forward once idle so a
					// clean round implies a globally idle period.
					s.token = &m
				case cmDone:
					s.done = true
					for _, ch := range []int{2*rank + 1, 2*rank + 2} {
						if ch < cfg.Workers {
							net.Send(p, rank, ch, msg.Msg{Kind: cmDone})
						}
					}
				}
			}
			sincePoll := 0
			for !s.done {
				if sv != nil && sv.finished {
					return
				}
				// Process local tasks, polling every pollEvery completions.
				if t, ok := s.q.pop(); ok {
					p.Sleep(cfg.Machine.ComputeOn(rank, cfg.Work))
					children := expand(t)
					for _, child := range children {
						s.q.push(child)
						s.pushed++
					}
					s.processed++
					st.Tasks++
					lastTask = p.Now()
					if sv != nil {
						sv.taskDone(t, len(children), p.Now())
					}
					sincePoll++
					if sincePoll >= pollEvery {
						sincePoll = 0
						for {
							m, ok := net.Poll(p, rank)
							if !ok {
								break
							}
							handle(m)
						}
					}
					continue
				}
				// Idle: forward a held token, then try to steal.
				if s.token != nil {
					m := *s.token
					s.token = nil
					round := m.A
					pd := int64(binary.LittleEndian.Uint64(m.Data[0:])) + s.pushed
					pr := int64(binary.LittleEndian.Uint64(m.Data[8:])) + s.processed
					if rank == 0 {
						if round > 1 && pd == pr && pd == prevPushed && pr == prevProcessed {
							s.done = true
							doneAt = p.Now()
							for _, ch := range []int{1, 2} {
								if ch < cfg.Workers {
									net.Send(p, 0, ch, msg.Msg{Kind: cmDone})
								}
							}
							continue
						}
						prevPushed, prevProcessed = pd, pr
						net.Send(p, 0, (rank+1)%cfg.Workers, msg.Msg{Kind: cmToken, A: round + 1, Data: make([]byte, 16)})
					} else {
						buf := make([]byte, 16)
						binary.LittleEndian.PutUint64(buf[0:], uint64(pd))
						binary.LittleEndian.PutUint64(buf[8:], uint64(pr))
						net.Send(p, rank, (rank+1)%cfg.Workers, msg.Msg{Kind: cmToken, A: round, Data: buf})
					}
				}
				if cfg.Workers > 1 && !s.waitingReply {
					victim := pickVictim(rng, rank, cfg.Workers)
					net.Send(p, rank, victim, msg.Msg{Kind: cmStealReq})
					s.waitingReply = true
				}
				if m, ok := net.Poll(p, rank); ok {
					handle(m)
				} else {
					p.Sleep(2 * sim.Microsecond)
				}
			}
		}
	}
	for r := 0; r < cfg.Workers; r++ {
		eng.GoID("charm", int64(r), body(r))
	}
	end := eng.Run(serveUntil(cfg))
	if eng.Live() > 0 {
		eng.Shutdown()
		if !sv.horizonCut(end) {
			panic(fmt.Sprintf("bot: Charm-like did not terminate by %v", cfg.MaxTime))
		}
	}
	st.Exec = end
	if doneAt > lastTask {
		st.TermDelay = doneAt - lastTask
	}
	ns := net.TotalStats()
	st.Dropped = ns.Dropped
	st.Retransmits = ns.Retransmits
	return st
}
