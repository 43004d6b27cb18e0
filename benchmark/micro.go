package main

import (
	"sort"
	"time"

	"contsteal/internal/core"
	"contsteal/internal/deque"
	"contsteal/internal/msg"
	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/uniaddr"
	"contsteal/internal/workload"
)

// Micro-drivers: one unit cost per layer, measured from outside through
// exported functions only. Each driver runs its operation about ops times and
// returns the host time of the operations alone (set-up excluded) and how
// many it ran; the reported cost is the median of microBatches batches, in a
// child of its own at GOMAXPROCS 1. Batch sizes are chosen so that a batch
// takes 0.05–0.25 s on this class of host: operations that cost several
// proc handoffs run fewer times than ones that cost a few nanoseconds.
const microBatches = 5

type microDriver struct {
	name string
	ops  int
	run  func(ops int) (time.Duration, int)
}

var microDrivers = []microDriver{
	{"sim.handoff_ns", 200_000, microHandoff},
	{"sim.sleep_ns", 200_000, microSleep},
	{"sim.callback_ns", 1_000_000, microCallback},
	{"sim.chain5_ns", 100_000, microChain5},
	{"sim.sharded_event_ns", 200_000, microSharded},
	{"rdma.get_ns", 100_000, microRDMA(func(f *rdma.Fabric, p *sim.Proc, loc rdma.Loc, buf []byte) { f.Get(p, 0, loc, buf) })},
	{"rdma.fetchadd_ns", 100_000, microRDMA(func(f *rdma.Fabric, p *sim.Proc, loc rdma.Loc, _ []byte) { f.FetchAdd(p, 0, loc, 1) })},
	{"deque.pushpop_ns", 100_000, microPushPop},
	{"deque.steal_ns", 100_000, microSteal(false)},
	{"deque.stealn_ns", 50_000, microSteal(true)},
	{"uniaddr.evac_restore_ns", 100_000, microEvacRestore},
	{"uniaddr.migrate_ns", 100_000, microMigrate},
	{"remobj.alloc_free_ns", 100_000, microAllocFree},
	{"msg.send_poll_ns", 100_000, microSendPoll},
	{"core.task_ns", 25_000, microTask},
	{"workload.uts_node_ns", 0, microUTSNode},
	{"obs.record_ns", 1_000_000, microRecord},
	{"obs.hist_observe_ns", 1_000_000, microHistObserve},
	{"topo.opdelay_ns", 1_000_000, microOpDelay},
}

func runMicro() map[string]float64 {
	out := make(map[string]float64, len(microDrivers))
	for _, d := range microDrivers {
		per := make([]float64, microBatches)
		for i := range per {
			took, ops := d.run(d.ops)
			per[i] = float64(took.Nanoseconds()) / float64(ops)
		}
		sort.Float64s(per)
		out[d.name] = per[microBatches/2]
	}
	return out
}

// inProc runs body as the only proc of a fresh engine and returns the host
// time of the engine run.
func inProc(eng *sim.Engine, body func(p *sim.Proc)) time.Duration {
	eng.Go("driver", body)
	start := time.Now()
	eng.Run(sim.Forever)
	return time.Since(start)
}

// microHandoff: one full proc handoff per op — wake event, rendezvous into
// the proc, rendezvous back at Park (sim's BenchmarkEngineHandoff).
func microHandoff(ops int) (time.Duration, int) {
	e := sim.NewEngine()
	p := e.Go("w", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Park()
		}
	})
	e.Run(sim.Forever) // start the proc; it parks immediately
	start := time.Now()
	for i := 0; i < ops; i++ {
		e.Wake(p)
		e.Run(sim.Forever)
	}
	return time.Since(start), ops
}

func microSleep(ops int) (time.Duration, int) {
	return inProc(sim.NewEngine(), func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Sleep(1)
		}
	}), ops
}

func microCallback(ops int) (time.Duration, int) {
	e := sim.NewEngine()
	n := 0
	var schedule func()
	schedule = func() {
		if n < ops {
			n++
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	start := time.Now()
	e.Run(sim.Forever)
	return time.Since(start), ops
}

// microChain5: a five-link completion chain per op — the shape of a
// THE-protocol steal: five callbacks, one handoff.
func microChain5(ops int) (time.Duration, int) {
	e := sim.NewEngine()
	return inProc(e, func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			c := e.NewChain(p)
			k := 0
			var step func()
			step = func() {
				if k == 4 {
					c.Complete()
					return
				}
				k++
				c.Then(1, step)
			}
			c.Then(1, step)
			c.Wait()
		}
	}), ops
}

// microSharded: the 4-node cross-routing kernel of the root bench_test.go's
// benchEngineSharded on the windowed sim.Sharded at 2 shards; op = one event.
func microSharded(ops int) (time.Duration, int) {
	const nodes, shards = 4, 2
	steps := ops / 9 // each step is 2.25 events on each of 4 nodes
	look := topo.WisteriaO().MinCrossNodeLatency()
	s := sim.NewSharded(shards, look)
	for node := 0; node < nodes; node++ {
		node, shard := node, node%shards
		s.Go(shard, "node", func(p *sim.Proc) {
			for step := 0; step < steps; step++ {
				p.Sleep(sim.Time(200 + node))
				s.Shard(shard).After(50, func() {})
				if step%4 == 0 {
					s.RouteAfter(shard, ((node+1)%nodes)%shards, look, func() {})
				}
			}
		})
	}
	start := time.Now()
	s.Run(sim.Forever)
	took := time.Since(start)
	events := int(s.Stats().Events)
	s.Shutdown()
	return took, events
}

// twoRanks builds an engine and a two-rank fabric on the ITO-A model.
func twoRanks() (*sim.Engine, *rdma.Fabric) {
	eng := sim.NewEngine()
	return eng, rdma.NewFabric(eng, topo.ITOA(), 2, 1<<20)
}

func microRDMA(op func(f *rdma.Fabric, p *sim.Proc, loc rdma.Loc, buf []byte)) func(ops int) (time.Duration, int) {
	return func(ops int) (time.Duration, int) {
		eng, fab := twoRanks()
		loc := rdma.Loc{Rank: 1, Addr: fab.Alloc(1, 64), Size: 8}
		buf := make([]byte, 8)
		return inProc(eng, func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				op(fab, p, loc, buf)
			}
		}), ops
	}
}

const microEntry = 16 // deque entry bytes

func microPushPop(ops int) (time.Duration, int) {
	eng, fab := twoRanks()
	d := deque.New(fab, 0, 256, microEntry)
	entry := make([]byte, microEntry)
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			d.Push(p, entry, nil)
			d.Pop(p)
		}
	}), ops
}

// microSteal times remote steals alone: the owner refills the deque untimed,
// then rank 1 drains it with Steal (one entry per op) or StealN (four).
func microSteal(batch bool) func(ops int) (time.Duration, int) {
	return func(ops int) (time.Duration, int) {
		const fill = 4096
		eng, fab := twoRanks()
		d := deque.New(fab, 0, fill, microEntry)
		d.Batch = batch
		entry := make([]byte, microEntry)
		var took time.Duration
		done := 0
		inProc(eng, func(p *sim.Proc) {
			for done < ops {
				for i := 0; i < fill; i++ {
					d.Push(p, entry, nil)
				}
				start := time.Now()
				for d.Len() > 0 {
					if batch {
						d.StealN(p, 1, func(int64) int64 { return 4 })
					} else {
						d.Steal(p, 1)
					}
					done++
				}
				took += time.Since(start)
			}
		})
		return took, done
	}
}

const microStack = 1600 // core's default StackBytes

func microEvacRestore(ops int) (time.Duration, int) {
	eng, fab := twoRanks()
	m := uniaddr.New(fab, 0, 1<<20, 1<<20)
	return inProc(eng, func(p *sim.Proc) {
		a := m.PushStack(microStack)
		for i := 0; i < ops; i++ {
			ev := m.Evacuate(p, a, microStack)
			m.Restore(p, ev, a, microStack)
		}
	}), ops
}

func microMigrate(ops int) (time.Duration, int) {
	eng, fab := twoRanks()
	m0 := uniaddr.New(fab, 0, 1<<20, 1<<20)
	m1 := uniaddr.New(fab, 1, 1<<20, 1<<20)
	return inProc(eng, func(p *sim.Proc) {
		a := m0.PushStack(microStack)
		src := m0.UniLoc(a, microStack)
		for i := 0; i < ops; i++ {
			m1.MigrateIn(p, src, a, microStack)
			m1.PopStack(a, microStack)
		}
	}), ops
}

// microAllocFree: rank 0 allocates, rank 1 frees remotely (a free-bit put
// under LocalCollection); the owner's sweeps are part of the cost.
func microAllocFree(ops int) (time.Duration, int) {
	eng, fab := twoRanks()
	s := remobj.NewSpace(fab, remobj.LocalCollection)
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			s.Free(p, 1, s.Alloc(p, 0, 32))
		}
	}), ops
}

// microSendPoll: bursts of sends, one sleep to let them land, then the same
// number of polls; op = one send plus one successful poll.
func microSendPoll(ops int) (time.Duration, int) {
	const burst = 64
	eng := sim.NewEngine()
	mach := topo.ITOA()
	net := msg.New(eng, mach, 2)
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < ops/burst; i++ {
			for k := 0; k < burst; k++ {
				net.Send(p, 0, 1, msg.Msg{Kind: 1})
			}
			p.Sleep(mach.IntraLatency * 4)
			for k := 0; k < burst; k++ {
				if _, ok := net.Poll(p, 1); !ok {
					panic("benchmark: message not delivered within the wait")
				}
			}
		}
	}), ops / burst * burst
}

// microTask: PFor on one worker, so no steal ever happens; op = one task
// spawned, run and joined through core (K=5 loops of ops/5 iterations).
func microTask(ops int) (time.Duration, int) {
	rt := core.New(core.Config{Machine: topo.ITOA(), Workers: 1, Policy: core.ContGreedy, RemoteFree: remobj.LocalCollection})
	start := time.Now()
	_, st := rt.Run(workload.PFor(workload.DefaultPForParams(ops / 5)))
	return time.Since(start), int(st.Work.Tasks)
}

// microUTSNode: the SHA-1 tree walk that uts cells pay on a cold memo and
// the uts setup pays in CountSerial. T1XXL' rather than T1WL' keeps a batch
// near a million nodes.
func microUTSNode(int) (time.Duration, int) {
	start := time.Now()
	nodes := workload.T1XXLPrime().CountSerial()
	return time.Since(start), int(nodes)
}

func microRecord(ops int) (time.Duration, int) {
	r := obs.NewRecorder()
	start := time.Now()
	for i := 0; i < ops; i++ {
		r.Event(obs.Event{T: sim.Time(i), Dur: 10, Rank: i & 63, Kind: obs.KindMsgPoll, Task: -1, Peer: -1})
	}
	return time.Since(start), ops
}

func microHistObserve(ops int) (time.Duration, int) {
	h := obs.NewHist("micro", obs.TimeBuckets())
	start := time.Now()
	for i := 0; i < ops; i++ {
		h.Observe(sim.Time(i) * 37)
	}
	return time.Since(start), ops
}

func microOpDelay(ops int) (time.Duration, int) {
	m := topo.ITOA()
	var sink sim.Time
	start := time.Now()
	for i := 0; i < ops; i++ {
		d, _ := m.OpDelay(i&31, 36+i&31, 64, i&1 == 0)
		sink += d
	}
	took := time.Since(start)
	if sink == 0 {
		panic("benchmark: OpDelay returned no delay")
	}
	return took, ops
}
