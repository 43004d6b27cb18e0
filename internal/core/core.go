// Package core implements the paper's primary contribution: a distributed
// work-stealing runtime over (simulated) RDMA supporting both continuation
// stealing and child stealing, with the stalling-join (Fig. 3) and
// greedy-join (Fig. 4) synchronization algorithms, uni-address thread-stack
// migration, remote-object memory management, and general futures with a
// fixed number of consumers (§V-D).
//
// One Runtime simulates a whole cluster run: P workers (one per simulated
// core), each a simulated process with its own THE-protocol deque in
// registered memory, a wait queue, a uni-address stack manager, and a
// remote-object allocator. User code is expressed as TaskFuncs receiving a
// Ctx, whose Spawn/Join/Compute calls drive the scheduling algorithms and
// charge the machine model's costs to virtual time.
//
// Scheduling policies (§IV):
//
//   - ContGreedy:   continuation stealing, greedy join  — the paper's system.
//   - ContStalling: continuation stealing, stalling join — the Akiyama/Taura
//     baseline behaviour (suspended threads are not migrated).
//   - ChildFull:    child stealing with fully fledged threads (own stacks,
//     suspendable, tied to their worker).
//   - ChildRtC:     child stealing with run-to-completion threads (joins can
//     be "buried" under nested task execution).
package core

import (
	"fmt"
	"math/rand"

	"contsteal/internal/deque"
	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
	"contsteal/internal/uniaddr"
)

// Policy selects the stealing and joining strategy of a Runtime.
type Policy int

const (
	// ContGreedy is continuation stealing with the greedy join of Fig. 4.
	ContGreedy Policy = iota
	// ContStalling is continuation stealing with the stalling join of Fig. 3.
	ContStalling
	// ChildFull is child stealing with fully fledged (suspendable, tied)
	// threads, each with its own stack.
	ChildFull
	// ChildRtC is child stealing with run-to-completion threads realized as
	// ordinary function calls (subject to the buried-join problem).
	ChildRtC
)

func (p Policy) String() string {
	switch p {
	case ContGreedy:
		return "cont-greedy"
	case ContStalling:
		return "cont-stalling"
	case ChildFull:
		return "child-full"
	case ChildRtC:
		return "child-rtc"
	}
	return "invalid"
}

// Continuation reports whether the policy steals continuations.
func (p Policy) Continuation() bool { return p == ContGreedy || p == ContStalling }

// TaskFunc is the body of a task/thread. Its return value (at most the
// runtime's RetvalBytes, nil for none) is written to the task's thread
// entry and handed to joiners.
type TaskFunc func(c *Ctx) []byte

const (
	// stackBytes is the logical stack footprint of one thread in the
	// uni-address region — the payload a continuation steal must copy.
	stackBytes = 1600
	// childTaskBytes is the descriptor size of a child-stealing task
	// ("function pointer and its arguments").
	childTaskBytes = 56
	// Per-rank sizes of the uni-address and evacuation regions.
	uniRegionBytes  = 4 << 20
	evacRegionBytes = 16 << 20
)

// Config parameterizes a Runtime.
type Config struct {
	Machine *topo.Machine
	Workers int
	Policy  Policy
	// RemoteFree selects the remote-object freeing strategy (§III-B):
	// remobj.LockQueue (baseline) or remobj.LocalCollection (optimized).
	RemoteFree remobj.Strategy
	Seed       int64

	// RetvalBytes is the size of the return-value field in thread entries.
	RetvalBytes int

	DequeCap int

	// Sample, when positive, enables the Fig. 7 time series with the given
	// sampling period.
	Sample sim.Time

	// MaxTime aborts the run at the given virtual time (0 = no limit),
	// protecting against livelocked configurations.
	MaxTime sim.Time

	// Steal selects the victim-selection and steal-amount policy (see
	// StealPolicy). The zero value is the paper's policy — uniform random
	// victims, steal-one — and reproduces the pre-seam runtime byte for
	// byte: identical RNG consumption, identical protocol ops, identical
	// metric and trace output.
	Steal StealPolicy

	// StackScheme selects how thread-stack virtual addresses are managed:
	// the uni-address scheme of Akiyama and Taura (default) or the
	// iso-address scheme of PM2/Charm++ for comparison (§II-D).
	StackScheme StackScheme

	// Trace enables per-event execution tracing across every layer
	// (scheduler task/compute/steal spans, deque steal-protocol phases,
	// remote-object management, messaging, stack migration, and raw RDMA
	// ops); retrieve with Runtime.TraceLog and export via Trace.WriteJSON
	// or Trace.WriteChromeTrace. Tracing only observes: it adds no events
	// to the simulation and cannot perturb virtual time.
	Trace bool

	// Metrics enables the deterministic metrics registry: per-worker
	// counters and fixed-bucket virtual-time histograms (steal latency,
	// protocol chain latencies, outstanding-join wait, deque occupancy),
	// merged in rank order so the output is byte-stable regardless of host
	// parallelism. Retrieve via RunStats.Obs.
	Metrics bool

	// Deprecated: has no effect; kept until benchmark/ stops setting it (ROADMAP item 1).
	Shards int
}

// StackScheme selects the stack-address management scheme.
type StackScheme int

const (
	// UniAddress places running stacks in a shared-layout region and
	// evacuates suspended stacks (the paper's scheme).
	UniAddress StackScheme = iota
	// IsoAddress gives every stack a globally unique virtual address, so
	// suspension needs no evacuation — at the price of unbounded virtual
	// address (and pinned-memory) consumption, the §II-D motivation for
	// uni-address. The consumption is reported in RunStats.IsoVirtualBytes.
	IsoAddress
)

func (s StackScheme) String() string {
	if s == IsoAddress {
		return "iso-address"
	}
	return "uni-address"
}

// defaults fills unset fields.
func (c *Config) defaults() {
	if c.Machine == nil {
		c.Machine = topo.ITOA()
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.RetvalBytes <= 0 {
		c.RetvalBytes = 8
	}
	if c.DequeCap <= 0 {
		c.DequeCap = 8192
	}
}

// Runtime is one simulated cluster execution environment.
type Runtime struct {
	cfg     Config
	eng     *sim.Engine
	fab     *rdma.Fabric
	objs    *remobj.Space
	workers []*Worker

	threadID int64             // the next thread id (ids are never reused)
	saved    map[int64]*Thread // suspended joiners by id, from saveContext until loadContext
	childSeq int64             // child-task id sequence
	done     bool
	rootRet  []byte
	busy     int // gauge: workers executing user work
	readyOJ  int // gauge: resumable-but-not-resumed outstanding joins
	joinInfo map[rdma.Loc]*joinInfo
	jstats   JoinStats
	series   []Sample

	// freeThreads holds dead Threads, zeroed but for their bound body, for
	// newThread to hand to the next task.
	freeThreads []*Thread

	// isoNext/isoHigh implement iso-address accounting: a global
	// never-reused virtual address counter and its high-water mark.
	isoNext uint64
	isoHigh uint64

	// serve is the open-system bookkeeping; non-nil only for Serve runs.
	serve *serveState

	// stealBackoff replaces the fixed idle backoff with a bounded
	// exponential one after a few consecutive failed steals (reset on
	// success). On exactly when the perturbation model is active (see
	// idleDelay); the fixed backoff is part of the golden timing.
	stealBackoff bool

	tr        *traceState // non-nil when Config.Trace is set
	lastStats *RunStats   // stats of the completed run (for TraceLog's Check block)
	lastServe *ServeStats // stats of the completed Serve run (for TraceLog's Serve block)
}

// reqTagger wraps the fabric's tracer sink so rdma (and perturb) events
// issued while a worker executes request work inherit that request's tag.
// Fabric events carry Rank = the issuing rank at issue time, so the
// worker's curReq register is exactly the right attribution; ops issued
// from scheduler context (steal protocol, migrations) have curReq == 0 and
// stay untagged — their time is covered by the thief's steal span instead.
// Closed-system runs always see curReq == 0, so traces are byte-identical
// with or without the shim.
type reqTagger struct {
	rt    *Runtime
	inner obs.Tracer
}

func (g *reqTagger) Event(e obs.Event) {
	if e.Req == 0 && e.Rank >= 0 && e.Rank < len(g.rt.workers) {
		e.Req = g.rt.workers[e.Rank].curReq
	}
	g.inner.Event(e)
}

func (g *reqTagger) Seq() int64 { return g.inner.Seq() }

// New builds a runtime. Call Run exactly once. The runtime runs on its own
// Clone of cfg.Machine: the caller's Machine (its Perturb model included) is
// read, never written, so runs sharing one are independent.
func New(cfg Config) *Runtime {
	cfg.defaults()
	cfg.Machine = cfg.Machine.Clone()
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, cfg.Machine, cfg.Workers, 1<<20)
	rt := &Runtime{
		cfg:          cfg,
		eng:          eng,
		fab:          fab,
		objs:         remobj.NewSpace(fab, cfg.RemoteFree),
		joinInfo:     make(map[rdma.Loc]*joinInfo),
		saved:        make(map[int64]*Thread),
		stealBackoff: cfg.Machine.Perturb.Active(),
	}
	if cfg.Trace {
		rec := obs.NewRecorder()
		rt.tr = newTraceState(cfg.Workers, rec)
		fab.Tr = &reqTagger{rt: rt, inner: rec}
		rt.objs.SetTracer(rec)
	}
	entrySize := contEntrySize
	if !cfg.Policy.Continuation() {
		entrySize = childTaskBytes
	}
	rt.workers = make([]*Worker, cfg.Workers)
	for r := 0; r < cfg.Workers; r++ {
		w := &Worker{
			rt:         rt,
			rank:       r,
			dq:         deque.New(fab, r, cfg.DequeCap, entrySize),
			ua:         uniaddr.New(fab, r, uniRegionBytes, evacRegionBytes),
			rng:        rand.New(rand.NewSource(cfg.Seed + int64(r)*0x9E3779B9)),
			lastVictim: -1,
		}
		w.bindCallbacks()
		if cfg.Steal.Amount == StealHalf {
			// Thieves will run the multi-entry StealN protocol, which needs
			// owner pops serialized against in-flight batch claims.
			w.dq.Batch = true
		}
		if rt.tr != nil {
			w.dq.Tr = rt.tr.rec
			w.ua.Tr = rt.tr.rec
		}
		if cfg.Metrics {
			w.ob = newWorkerObs()
		}
		rt.workers[r] = w
	}
	for r := 1; r < cfg.Workers; r++ {
		if !uniaddr.SameLayout(rt.workers[0].ua, rt.workers[r].ua) {
			panic("core: uni-address layout differs across ranks")
		}
	}
	return rt
}

// Engine exposes the underlying simulation engine (e.g. for tests).
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Fabric exposes the runtime's one-sided fabric so companion substrates
// (e.g. the PGAS global heap) can register memory on the same ranks.
func (rt *Runtime) Fabric() *rdma.Fabric { return rt.fab }

// Config returns the (defaulted) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Run executes root as the initial task on worker 0 and simulates until the
// whole computation completes. It returns the root's return value and the
// aggregated statistics.
func (rt *Runtime) Run(root TaskFunc) ([]byte, RunStats) {
	rt.workers[0].rootTask = root
	stats := rt.collect(rt.drive("run", nil, 0))
	return rt.rootRet, stats
}

// drive is the body Run and Serve share: start the workers, schedule the
// open system's arrivals (none for Run), arm the sampler, and simulate until
// the run is done, the horizon (if positive) cuts it, or Config.MaxTime gives
// it up. Returns the virtual end time.
func (rt *Runtime) drive(what string, reqs []Request, horizon sim.Time) sim.Time {
	for _, w := range rt.workers {
		w.proc = rt.eng.GoID("worker", int64(w.rank), w.schedule)
	}
	rt.scheduleArrivals(reqs, horizon)
	if rt.cfg.Sample > 0 {
		rt.armSampler()
	}
	until := rt.maxHorizon()
	if horizon > 0 && horizon < until {
		until = horizon
	}
	end := rt.eng.Run(until)
	switch {
	case !rt.done && horizon > 0 && end >= horizon:
		// Horizon cut: workers (and any in-flight request threads) are
		// still live by design; kill them and report the remainder.
		rt.eng.Shutdown()
	case !rt.done:
		rt.eng.Shutdown()
		panic(fmt.Sprintf("core: %v %s did not complete by %v (deadlock=%v, live=%d)",
			rt.cfg.Policy, what, until, rt.eng.Deadlocked(), rt.eng.Live()))
	case rt.eng.Live() > 0:
		live := rt.eng.Live()
		rt.eng.Shutdown()
		panic(fmt.Sprintf("core: %d procs leaked at %s completion", live, what))
	}
	return end
}

func (rt *Runtime) maxHorizon() sim.Time {
	if rt.cfg.MaxTime > 0 {
		return rt.cfg.MaxTime
	}
	return sim.Forever
}

func (rt *Runtime) armSampler() {
	var tick func()
	tick = func() {
		if rt.done {
			return
		}
		rt.series = append(rt.series, Sample{T: rt.eng.Now(), Busy: rt.busy, Ready: rt.readyOJ})
		rt.eng.After(rt.cfg.Sample, tick)
	}
	rt.eng.After(rt.cfg.Sample, tick)
}

func (rt *Runtime) collect(end sim.Time) RunStats {
	rs := RunStats{
		Policy:   rt.cfg.Policy,
		Workers:  rt.cfg.Workers,
		ExecTime: end,
		Join:     rt.jstats,
		Fabric:   rt.fab.TotalStats(),
		Mem:      rt.objs.TotalStats(),
		Series:   rt.series,
	}
	rs.IsoVirtualBytes = rt.isoHigh
	rs.Engine = rt.eng.Stats()
	rs.InPlace = rt.eng.InPlace()
	rs.Inline = rt.eng.Inline()
	rs.CrossShard = rs.Fabric.InterNode
	for _, w := range rt.workers {
		rs.Work.add(&w.st)
		rs.Stack.Evacuations += w.ua.St.Evacuations
		rs.Stack.Restores += w.ua.St.Restores
		rs.Stack.MigrationsIn += w.ua.St.MigrationsIn
		rs.Stack.BytesMoved += w.ua.St.BytesMoved
		rs.Stack.Conflicts += w.ua.St.Conflicts
	}
	rt.collectObs(&rs)
	rt.lastStats = &rs
	return rs
}

// collectObs merges the per-worker metric registries in rank order (so the
// merged output is byte-stable regardless of host parallelism) and snapshots
// the headline counters from the summed worker stats.
func (rt *Runtime) collectObs(rs *RunStats) {
	if len(rt.workers) == 0 || rt.workers[0].ob == nil {
		return
	}
	m := obs.NewRegistry()
	for _, w := range rt.workers {
		m.Merge(w.ob.reg)
	}
	m.Counter("spawns").Add(rs.Work.Spawns)
	m.Counter("tasks").Add(rs.Work.Tasks)
	m.Counter("joins").Add(rs.Work.Joins)
	m.Counter("steals.ok").Add(rs.Work.StealsOK)
	m.Counter("steals.fail").Add(rs.Work.StealsFail)
	m.Counter("migrations").Add(rs.Work.Migrations)
	m.Counter("waitq.resumes").Add(rs.Work.WaitQResumes)
	m.Counter("oj.outstanding").Add(rs.Join.Outstanding)
	m.Counter("oj.resumed").Add(rs.Join.Resumed)
	// Registered only under fault injection so perturbation-off metric
	// output stays byte-identical to pre-perturbation runs.
	if rs.Fabric.PerturbTime > 0 {
		m.Counter("perturb.extra.ns").Add(uint64(rs.Fabric.PerturbTime))
	}
	// Steal-policy counters, registered only under a non-default policy so
	// default (uniform, steal-one) metric output stays byte-identical to
	// pre-seam runs.
	if !rt.cfg.Steal.Default() {
		var batches, entries uint64
		for _, w := range rt.workers {
			batches += w.dq.St.BatchSteals
			entries += w.dq.St.BatchEntries
		}
		m.Counter("steal.batch.ops").Add(batches)
		m.Counter("steal.batch.entries").Add(entries)
		m.Counter("steal.surplus.requeued").Add(rs.Work.SurplusStolen)
	}
	// Admission/conservation counters, registered only in serve mode for the
	// same reason. serve.admitted == serve.completed + serve.inflight on
	// every run — the invariant the serve test harness asserts per cell.
	if s := rt.serve; s != nil {
		m.Counter("serve.admitted").Add(s.total)
		m.Counter("serve.injected").Add(s.injected)
		m.Counter("serve.completed").Add(s.completed)
		m.Counter("serve.inflight").Add(s.total - s.completed)
	}
	rs.Obs = m
}

// finish is called by the root thread when it completes.
func (rt *Runtime) finish(ret []byte) {
	rt.rootRet = append([]byte(nil), ret...)
	rt.done = true
}

// info returns (creating if needed) the join bookkeeping for an entry.
func (rt *Runtime) info(e rdma.Loc) *joinInfo {
	ji := rt.joinInfo[e]
	if ji == nil {
		ji = &joinInfo{}
		rt.joinInfo[e] = ji
	}
	return ji
}

// joinSuspended records that the joining side suspended at entry e.
func (rt *Runtime) joinSuspended(e rdma.Loc) {
	ji := rt.info(e)
	ji.suspended = true
	if !ji.counted {
		ji.counted = true
		rt.jstats.Outstanding++
	}
	rt.checkReady(e, ji)
}

// joinCompleted records that the joined side reached the sync point.
func (rt *Runtime) joinCompleted(e rdma.Loc) {
	ji := rt.info(e)
	ji.completed = true
	rt.checkReady(e, ji)
}

func (rt *Runtime) checkReady(_ rdma.Loc, ji *joinInfo) {
	if ji.suspended && ji.completed && !ji.ready {
		ji.ready = true
		ji.readyAt = rt.eng.Now()
		rt.readyOJ++
	}
}

// joinResumed records that a suspended join's continuation resumed on
// worker w (running task `task`, -1 for buried RtC joins). The elapsed time
// since it became ready is the outstanding-join time; the resume trace span
// covers exactly that window, so Σ resume durations == OutstandingTime.
func (rt *Runtime) joinResumed(w *Worker, e rdma.Loc, task, req int64) {
	ji := rt.joinInfo[e]
	if ji == nil {
		return
	}
	if ji.ready {
		wait := rt.eng.Now() - ji.readyAt
		rt.jstats.OutstandingTime += wait
		rt.jstats.Resumed++
		rt.readyOJ--
		ji.ready = false
		rt.traceEvent(obs.Event{T: ji.readyAt, Rank: w.rank, Kind: obs.KindResume, Task: task, Peer: -1, Req: req})
		if w.ob != nil {
			w.ob.ojWait.Observe(wait)
		}
	}
	ji.suspended = false
}

// dropJoinInfo discards bookkeeping when an entry is freed.
func (rt *Runtime) dropJoinInfo(e rdma.Loc) { delete(rt.joinInfo, e) }
