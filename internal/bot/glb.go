package bot

import (
	"encoding/binary"
	"fmt"

	"contsteal/internal/msg"
	"contsteal/internal/sim"
)

// X10/GLB-like runtime: lifeline-based global load balancing (Saraswat et
// al., PPoPP '11). An idle worker makes a bounded number of random
// two-sided steal attempts; if all fail it registers with its *lifelines*
// (a hypercube graph over ranks) and goes quiescent. A worker that has
// work distributes half of it to any registered lifeline child the next
// time it polls, reactivating it. Termination uses the message token ring
// (standing in for X10's finish construct, which provides the equivalent
// distributed-counting guarantee).

const (
	glbStealReq = iota + 101
	glbWork
	glbNoWork
	glbLifelineReg
	glbToken
	glbDone
)

// lifelineOut returns the hypercube out-edges of rank (rank XOR 2^k < P).
func lifelineOut(rank, workers int) []int {
	var out []int
	for bit := 1; bit < workers; bit <<= 1 {
		n := rank ^ bit
		if n < workers {
			out = append(out, n)
		}
	}
	return out
}

// RunGLB executes the workload under the GLB-like lifeline runtime.
func RunGLB(cfg Config, root Task, expand Expand) Stats {
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
		lifelined    bool // registered with lifelines; quiescent
		waiters      []int
		token        *msg.Msg // held termination token (forwarded when idle)
		done         bool
	}
	states := make([]*workerState, cfg.Workers)
	for i := range states {
		states[i] = &workerState{}
	}
	var prevPushed, prevProcessed int64 = -1, -1

	// Open-system mode: arrivals land in the target worker's local queue and
	// clear its lifeline quiescence (an arrival reactivates a worker exactly
	// like lifeline work would); the token never circulates and drain is
	// detected structurally.
	var sv *serveState
	if cfg.Serve != nil {
		sv = newServeState(cfg.Serve)
		sv.arm(eng, func(a ServeArrival) {
			s := states[a.Rank]
			s.q.push(a.Task)
			s.lifelined = false
		})
	}

	body := func(rank int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			s := states[rank]
			rng := newRNG(cfg.Seed, rank)
			lifelines := lifelineOut(rank, cfg.Workers)
			if rank == 0 && sv == nil {
				s.q.push(root)
				s.pushed++
				net.Send(p, 0, (rank+1)%cfg.Workers, msg.Msg{Kind: glbToken, A: 1, Data: make([]byte, 16)})
			}
			// distribute pushes half the queue to one registered waiter.
			distribute := func() {
				for len(s.waiters) > 0 && s.q.len() > 1 {
					waiter := s.waiters[0]
					s.waiters = s.waiters[1:]
					k := min(s.q.len()/2, stealHalfMax)
					ts := s.q.popOldest(k)
					net.Send(p, rank, waiter, msg.Msg{Kind: glbWork, Data: encodeTasks(ts)})
					st.StealsOK++
					st.StolenTsks += uint64(k)
				}
			}
			handle := func(m msg.Msg) {
				st.Msgs++
				switch m.Kind {
				case glbStealReq:
					if s.q.len() > 1 {
						k := min(s.q.len()/2, stealHalfMax)
						ts := s.q.popOldest(k)
						net.Send(p, rank, m.From, msg.Msg{Kind: glbWork, Data: encodeTasks(ts)})
						st.StealsOK++
						st.StolenTsks += uint64(k)
					} else {
						net.Send(p, rank, m.From, msg.Msg{Kind: glbNoWork})
						st.StealsFail++
					}
				case glbWork:
					for _, t := range decodeTasks(m.Data) {
						s.q.push(t)
					}
					s.waitingReply = false
					s.lifelined = false // reactivated
				case glbNoWork:
					s.waitingReply = false
				case glbLifelineReg:
					s.waiters = append(s.waiters, m.From)
					distribute()
				case glbToken:
					// Hold the token while busy; forward once idle.
					s.token = &m
				case glbDone:
					s.done = true
					for _, ch := range []int{2*rank + 1, 2*rank + 2} {
						if ch < cfg.Workers {
							net.Send(p, rank, ch, msg.Msg{Kind: glbDone})
						}
					}
				}
			}
			sincePoll := 0
			attempts := 0
			for !s.done {
				if sv != nil && sv.finished {
					return
				}
				if t, ok := s.q.pop(); ok {
					attempts = 0
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
						distribute()
					}
					continue
				}
				// Idle: forward a held token first.
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
									net.Send(p, 0, ch, msg.Msg{Kind: glbDone})
								}
							}
							continue
						}
						prevPushed, prevProcessed = pd, pr
						net.Send(p, 0, (rank+1)%cfg.Workers, msg.Msg{Kind: glbToken, A: round + 1, Data: make([]byte, 16)})
					} else {
						buf := make([]byte, 16)
						binary.LittleEndian.PutUint64(buf[0:], uint64(pd))
						binary.LittleEndian.PutUint64(buf[8:], uint64(pr))
						net.Send(p, rank, (rank+1)%cfg.Workers, msg.Msg{Kind: glbToken, A: round, Data: buf})
					}
				}
				// Idle path: random steals, then lifelines, then quiescence.
				if cfg.Workers > 1 && !s.waitingReply && !s.lifelined {
					if attempts < randomSteals {
						victim := pickVictim(rng, rank, cfg.Workers)
						net.Send(p, rank, victim, msg.Msg{Kind: glbStealReq})
						s.waitingReply = true
						attempts++
					} else {
						for _, l := range lifelines {
							net.Send(p, rank, l, msg.Msg{Kind: glbLifelineReg})
						}
						s.lifelined = true
						attempts = 0
					}
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
		eng.GoID("glb", int64(r), body(r))
	}
	end := eng.Run(serveUntil(cfg))
	if eng.Live() > 0 {
		eng.Shutdown()
		if !sv.horizonCut(end) {
			panic(fmt.Sprintf("bot: GLB-like did not terminate by %v", cfg.MaxTime))
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
