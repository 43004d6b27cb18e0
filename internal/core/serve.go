package core

import (
	"fmt"
	"sort"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// Open-system ("serve") mode: instead of one root task run to completion,
// the runtime accepts a trace of timestamped requests, each spawning its own
// task DAG when it arrives. Completion is per-request (the request's root
// thread dying), and the run ends when every admitted request has completed
// — or at an explicit horizon, reporting the in-flight remainder.
//
// Arrivals are injected into a per-worker inbox by one batch of engine
// timers (Engine.AtEach), which keeps only the next arrival queued, so the
// whole open system stays inside the deterministic engine — results are
// byte-identical for any host parallelism, the same contract as
// closed-system runs — and a long trace does not crowd the event heap.

// Request is one open-system arrival: a request DAG root Fn that enters the
// system at virtual time At. ID is caller-assigned identity (must be ≥ 0 and
// unique within one Serve call — it keys the per-request trace attribution),
// reported back in RequestDone.
type Request struct {
	ID int64
	At sim.Time
	Fn TaskFunc
}

// RequestDone records one completed request.
type RequestDone struct {
	ID  int64    `json:"id"`
	At  sim.Time `json:"at"`  // arrival
	End sim.Time `json:"end"` // completion
}

// Sojourn is the request's end-to-end virtual-time latency.
func (d RequestDone) Sojourn() sim.Time { return d.End - d.At }

// ServeStats extends RunStats with the open-system accounting. The
// conservation invariant Admitted == Completed + InFlight holds exactly on
// every run, horizon-cut or drained.
type ServeStats struct {
	RunStats
	Admitted  uint64 // requests handed to Serve
	Injected  uint64 // arrival timers that fired (all of them, unless cut)
	Completed uint64
	InFlight  uint64 // Admitted - Completed at the end of the run
	// Done holds the per-request completions, sorted by (End, ID). The sort
	// is the ordering contract: completion order happens to coincide with
	// nondecreasing End today, but it is an engine-dispatch artifact and
	// must not leak into output that downstream percentile computations and
	// goldens depend on.
	Done []RequestDone
}

// serveState is the runtime's open-system bookkeeping. The engine runs one
// event at a time, so plain fields mutated from timers and worker procs stay
// deterministic.
type serveState struct {
	total     uint64
	injected  uint64
	completed uint64
	done      []RequestDone
	// dozing holds workers parked on the arrival doorbell: the system was
	// quiescent (injected == completed, so no task exists anywhere) and the
	// only possible new work is a future arrival. Injection wakes them all.
	dozing []*Worker
}

// quiescent reports whether no injected request is still executing — the
// condition under which an idle worker may park instead of polling: every
// task in an open system descends from a request, so injected == completed
// means there is nothing to run or steal anywhere.
func (s *serveState) quiescent() bool { return s.injected == s.completed }

// doze registers the calling worker on the arrival doorbell. The caller must
// park immediately after (the engine dispatches no event in between, so the
// registration cannot miss a wake).
func (s *serveState) doze(w *Worker) { s.dozing = append(s.dozing, w) }

// wakeDozers unparks every dozing worker — on a new arrival (fresh work) or
// at the end of the run (so parked workers observe rt.done and exit).
func (rt *Runtime) wakeDozers() {
	s := rt.serve
	for _, w := range s.dozing {
		rt.eng.Wake(w.proc)
	}
	s.dozing = s.dozing[:0]
}

// Serve runs the open system: each request is injected at its arrival time
// into a worker inbox (arrival index round-robin over ranks, modelling a
// front-end load balancer) and executed as a root task under the configured
// policy. Requests must be sorted by At. A positive horizon cuts the run at
// that virtual time — remaining requests are reported as InFlight instead
// of panicking; horizon 0 drains the system (subject to Config.MaxTime).
// Call at most once per Runtime, instead of Run. AttributeRequests then
// returns the per-request delay attribution: an untraced run makes it as it
// goes, each request when it closes, and keeps no event log.
func (rt *Runtime) Serve(reqs []Request, horizon sim.Time) ServeStats {
	if rt.serve != nil {
		panic("core: Serve may be called at most once per Runtime")
	}
	seen := make(map[int64]bool, len(reqs))
	for i := range reqs {
		if i > 0 && reqs[i].At < reqs[i-1].At {
			panic("core: Serve arrivals must be sorted by arrival time")
		}
		if reqs[i].ID < 0 {
			panic(fmt.Sprintf("core: Serve request ID %d is negative", reqs[i].ID))
		}
		if seen[reqs[i].ID] {
			panic(fmt.Sprintf("core: Serve request ID %d is not unique", reqs[i].ID))
		}
		seen[reqs[i].ID] = true
	}
	s := &serveState{total: uint64(len(reqs)), done: make([]RequestDone, 0, len(reqs))}
	rt.serve = s
	if rt.rec == nil {
		// Untraced: attribute each request as its events happen. Deque,
		// uniaddr and remobj keep nil tracers: their events carry no
		// request tag.
		rt.live = newAttributor(len(reqs))
		rt.tr = rt.live
		rt.fab.Tr = &reqTagger{rt: rt, inner: rt.live}
	}
	if rt.ob != nil {
		rt.ob.sojourn = rt.ob.reg.Hist("serve.sojourn", obs.TimeBuckets())
	}
	if len(reqs) == 0 {
		rt.done = true
	}
	end := rt.drive("serve", reqs, horizon)
	sort.Slice(s.done, func(i, j int) bool {
		if s.done[i].End != s.done[j].End {
			return s.done[i].End < s.done[j].End
		}
		return s.done[i].ID < s.done[j].ID
	})
	st := ServeStats{
		RunStats:  rt.collect(end),
		Admitted:  s.total,
		Injected:  s.injected,
		Completed: s.completed,
		InFlight:  s.total - s.completed,
		Done:      s.done,
	}
	rt.lastServe = &st
	return st
}

// scheduleArrivals queues the arrivals before the horizon as one engine
// timer batch (Engine.AtEach): request i's timer injects it into a worker
// inbox (arrival index round-robin over ranks) and rings the doorbell. The
// inbox points into reqs, which Serve does not return before the run ends.
func (rt *Runtime) scheduleArrivals(reqs []Request, horizon sim.Time) {
	if horizon > 0 {
		// Later arrivals would land at or after the cut: in flight by definition.
		reqs = reqs[:sort.Search(len(reqs), func(i int) bool { return reqs[i].At >= horizon })]
	}
	ts := make([]sim.Time, len(reqs))
	for i := range reqs {
		ts[i] = reqs[i].At
	}
	rt.eng.AtEach(ts, func(i int) {
		r, w := &reqs[i], rt.workers[i%len(rt.workers)]
		rt.serve.injected++
		// Arrival and admission coincide today (admission decisions are
		// made before injection); the two instants are the seam where an
		// SLO-aware admission delay will appear between them.
		ev := obs.Event{T: rt.eng.Now(), Rank: w.rank, Kind: obs.KindServeArrive, Task: -1, Peer: -1, Req: r.ID + 1}
		rt.traceEvent(ev)
		ev.Kind = obs.KindServeAdmit
		rt.traceEvent(ev)
		w.inbox.push(r)
		rt.wakeDozers()
	})
}

// requestDone books one completed request at the current virtual time and
// flips the runtime's done flag when the system has drained.
func (rt *Runtime) requestDone(w *Worker, r *Request) {
	s := rt.serve
	now := rt.eng.Now()
	s.completed++
	rt.traceEvent(obs.Event{T: now, Rank: w.rank, Kind: obs.KindServeDone, Task: -1, Peer: -1, Req: r.ID + 1})
	s.done = append(s.done, RequestDone{ID: r.ID, At: r.At, End: now})
	if rt.ob != nil {
		rt.ob.sojourn.Observe(now - r.At)
	}
	if s.completed == s.total {
		rt.done = true
		rt.wakeDozers()
	}
}
