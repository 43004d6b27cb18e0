package bot

import (
	"encoding/binary"
	"math"

	"contsteal/internal/msg"
	"contsteal/internal/sim"
)

// The two-sided runtime: message-driven work stealing. An idle worker sends
// a steal request; the victim only notices it when it polls between tasks,
// so every steal costs a full round trip *plus* the victim's polling delay
// and handler time — the structural cost of two-sided work stealing that
// limits scalability in Fig. 8. The termination token is itself a message
// and advances only as fast as workers poll (standing in, for GLB, for X10's
// finish construct, which gives the equivalent distributed-counting
// guarantee).
//
// Lifeline-based global load balancing (Saraswat et al., PPoPP '11) adds one
// stage: after a bounded number of failed random steal attempts an idle
// worker registers with its *lifelines* (a hypercube graph over ranks) and
// goes quiescent; a worker that has work pushes half of it to any registered
// lifeline child the next time it polls, reactivating it. That budget is the
// whole difference between the two baselines: GLB retreats after
// randomSteals attempts, Charm++ never does — no lifeline is ever
// registered and the stage stays inert.

// RunCharm executes the workload under the Charm++-like message-driven
// runtime.
func RunCharm(cfg Config, root Task, expand Expand) Stats {
	return runTwoSided("charm", math.MaxInt, cfg, root, expand)
}

// RunGLB executes the workload under the GLB-like lifeline runtime.
func RunGLB(cfg Config, root Task, expand Expand) Stats {
	return runTwoSided("glb", randomSteals, cfg, root, expand)
}

// Message kinds.
const (
	kindStealReq = iota + 1
	kindWork
	kindNoWork
	kindLifelineReg
	kindToken
	kindDone
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

func encodeTasks(ts []Task) []byte {
	buf := make([]byte, len(ts)*TaskBytes)
	for i, t := range ts {
		encodeTask(buf[i*TaskBytes:], t)
	}
	return buf
}

func decodeTasks(buf []byte) []Task {
	ts := make([]Task, len(buf)/TaskBytes)
	for i := range ts {
		ts[i] = decodeTask(buf[i*TaskBytes:])
	}
	return ts
}

// localQueue is a two-sided worker's work buffer: LIFO for the owner, the
// oldest tasks go to thieves.
type localQueue struct {
	tasks []Task
}

func (q *localQueue) push(t Task) { q.tasks = append(q.tasks, t) }
func (q *localQueue) len() int    { return len(q.tasks) }
func (q *localQueue) pop() (Task, bool) {
	if len(q.tasks) == 0 {
		return Task{}, false
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t, true
}

// popOldest removes up to k tasks from the steal end (FIFO side).
func (q *localQueue) popOldest(k int) []Task {
	if k > len(q.tasks) {
		k = len(q.tasks)
	}
	out := append([]Task(nil), q.tasks[:k]...)
	q.tasks = append(q.tasks[:0], q.tasks[k:]...)
	return out
}

type twoSidedWorker struct {
	q            localQueue
	pushed       int64 // tasks created here (cumulative)
	processed    int64 // tasks completed here (cumulative)
	waitingReply bool
	lifelined    bool   // registered with lifelines; quiescent
	waiters      []int  // lifeline children waiting for work
	token        *token // held termination token (forwarded when idle)
	done         bool
}

// runTwoSided is the body of both message-driven baselines. name prefixes
// the proc names; stealBudget is the number of failed random steal attempts
// after which an idle worker retreats to its lifelines.
func runTwoSided(name string, stealBudget int, cfg Config, root Task, expand Expand) Stats {
	r := newRun(name, cfg)
	cfg = r.cfg
	st := &r.st
	net := msg.New(r.eng, cfg.Machine, cfg.Workers)
	states := make([]twoSidedWorker, cfg.Workers)

	// Open-system mode: arrivals land in the target worker's local queue (the
	// front-end's incoming-work message) and clear its lifeline quiescence —
	// an arrival reactivates a worker exactly like lifeline work would.
	r.arm(func(a ServeArrival) {
		states[a.Rank].q.push(a.Task)
		states[a.Rank].lifelined = false
	})

	body := func(p *sim.Proc, rank int) {
		s := &states[rank]
		rng := newRNG(cfg.Seed, rank)
		lifelines := lifelineOut(rank, cfg.Workers)
		send := func(to int, m msg.Msg) { net.Send(p, rank, to, m) }
		sendToken := func(tk token) {
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint64(buf[0:], uint64(tk.pushed))
			binary.LittleEndian.PutUint64(buf[8:], uint64(tk.processed))
			send((rank+1)%cfg.Workers, msg.Msg{Kind: kindToken, A: tk.round, Data: buf})
		}
		if rank == 0 && r.sv == nil {
			s.q.push(root)
			s.pushed++
			sendToken(token{round: 1})
		}
		// give sends the older half of the queue to rank `to`.
		give := func(to int) {
			k := min(s.q.len()/2, stealHalfMax)
			send(to, msg.Msg{Kind: kindWork, Data: encodeTasks(s.q.popOldest(k))})
			st.StealsOK++
			st.StolenTsks += uint64(k)
		}
		// distribute feeds registered lifeline waiters while work lasts.
		distribute := func() {
			for len(s.waiters) > 0 && s.q.len() > 1 {
				waiter := s.waiters[0]
				s.waiters = s.waiters[1:]
				give(waiter)
			}
		}
		// terminate marks this rank done and fans the signal out.
		terminate := func() {
			s.done = true
			for _, ch := range doneChildren(rank, cfg.Workers) {
				send(ch, msg.Msg{Kind: kindDone})
			}
		}
		handle := func(m msg.Msg) {
			st.Msgs++
			switch m.Kind {
			case kindStealReq:
				if s.q.len() > 1 {
					give(m.From)
				} else {
					send(m.From, msg.Msg{Kind: kindNoWork})
					st.StealsFail++
				}
			case kindWork:
				for _, t := range decodeTasks(m.Data) {
					s.q.push(t)
				}
				s.waitingReply = false
				s.lifelined = false // reactivated
			case kindNoWork:
				s.waitingReply = false
			case kindLifelineReg:
				s.waiters = append(s.waiters, m.From)
				distribute()
			case kindToken:
				// Hold the token while busy; forward once idle so a clean
				// round implies a globally idle period.
				s.token = &token{
					round:     m.A,
					pushed:    int64(binary.LittleEndian.Uint64(m.Data[0:])),
					processed: int64(binary.LittleEndian.Uint64(m.Data[8:])),
				}
			case kindDone:
				terminate()
			}
		}
		attempts := 0 // random steal requests since the last task or retreat
		for !s.done && !r.drained() {
			// Process local tasks, polling every pollEvery completions.
			if t, ok := s.q.pop(); ok {
				attempts = 0
				p.Sleep(cfg.Machine.ComputeOn(rank, cfg.Work))
				children := expand(t)
				for _, child := range children {
					s.q.push(child)
					s.pushed++
				}
				s.processed++
				r.taskDone(t, len(children), p.Now())
				if s.processed%pollEvery == 0 {
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
				tk := token{s.token.round, s.token.pushed + s.pushed, s.token.processed + s.processed}
				s.token = nil
				next, done := r.ring.pass(rank, tk)
				if done {
					r.doneAt = p.Now()
					terminate()
					continue
				}
				sendToken(next)
			}
			// Then random steals, then lifelines, then quiescence.
			if cfg.Workers > 1 && !s.waitingReply && !s.lifelined {
				if attempts < stealBudget {
					send(pickVictim(rng, rank, cfg.Workers), msg.Msg{Kind: kindStealReq})
					s.waitingReply = true
					attempts++
				} else {
					for _, l := range lifelines {
						send(l, msg.Msg{Kind: kindLifelineReg})
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
	for rank := range states {
		r.eng.GoID(name, int64(rank), func(p *sim.Proc) { body(p, rank) })
	}
	stats := r.finish()
	ns := net.TotalStats()
	stats.Dropped, stats.Retransmits = ns.Dropped, ns.Retransmits
	return stats
}
