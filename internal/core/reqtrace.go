package core

import (
	"cmp"
	"fmt"
	"slices"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// Per-request sojourn attribution for open-system (Serve) traces: the
// DelaySpotter-style decomposition of RankAttribution applied to one
// request's wall-clock window instead of one rank's. Every event carries
// the request tag of the DAG it belongs to (obs.Event.Req), so a request's
// sojourn [At, End] can be cut into disjoint components whose sum equals
// Sojourn() to the tick — the same exactness contract Verify() enforces for
// the closed-system counters, checked per request by CheckRequests.

// ServeCheck embeds the open-system counters (and the per-request
// completion log) into a serve trace, making the file self-contained for
// `repro analyze -requests`: the trace-derived attribution must reproduce
// every entry exactly.
type ServeCheck struct {
	Admitted  uint64        `json:"admitted"`
	Injected  uint64        `json:"injected"`
	Completed uint64        `json:"completed"`
	InFlight  uint64        `json:"inflight"`
	Done      []RequestDone `json:"done"` // sorted by (End, ID), like ServeStats.Done
}

// Delays is the breakdown of request sojourn into its seven disjoint
// components (see Trace.RequestAttribution for their semantics and the
// overlap-resolution priority), for one request or summed over many.
type Delays struct {
	AdmitWait  sim.Time // uncovered time before Admit (0 today; the SLO-admission seam)
	Queue      sim.Time // uncovered time after Admit: inbox + deque wait, no task of this request progressing
	Compute    sim.Time // covered by this request's compute spans
	StealXfer  sim.Time // steal protocol + payload transfer moving this request's tasks
	FabricWait sim.Time // this request's one-sided fabric ops (incl. perturbation extra) outside compute/steal windows
	Sched      sim.Time // inside this request's run spans but none of the above: spawn/join/die protocol overhead
	JoinWait   sim.Time // suspended at a join with no other component of this request covering the time
}

// Sum adds the components.
func (d Delays) Sum() sim.Time {
	return d.AdmitWait + d.Queue + d.Compute + d.StealXfer + d.FabricWait + d.Sched + d.JoinWait
}

// Add accumulates o into d, component by component.
func (d *Delays) Add(o Delays) {
	d.AdmitWait += o.AdmitWait
	d.Queue += o.Queue
	d.Compute += o.Compute
	d.StealXfer += o.StealXfer
	d.FabricWait += o.FabricWait
	d.Sched += o.Sched
	d.JoinWait += o.JoinWait
}

// RequestAttribution decomposes one request's sojourn: its Delays are
// disjoint and Sum() == End - At exactly.
type RequestAttribution struct {
	ID    int64    // caller-assigned request ID
	At    sim.Time // front-end arrival (serve.arrive)
	Admit sim.Time // inbox entry (serve.admit; == At until admission delays exist)
	Start sim.Time // root task first popped from the inbox (serve.start)
	End   sim.Time // DAG fully joined (serve.done)
	Delays
}

// Sojourn is the request's end-to-end latency.
func (a RequestAttribution) Sojourn() sim.Time { return a.End - a.At }

// Attribution classes, in overlap-resolution priority order (lower wins an
// instant covered by several component intervals).
const (
	classCompute = iota
	classSteal
	classFabric
	classSched
	classJoin
	numClasses
)

// reqInterval is one half-open component interval [start, end) of a request.
type reqInterval struct {
	start, end sim.Time
	class      int
}

// classOf[k] is the attribution class of an event of kind k, or numClasses
// when its span is no component interval.
var classOf = func() (c [256]uint8) {
	for k := range c {
		switch kind := obs.Kind(k); {
		case kind == obs.KindCompute:
			c[k] = classCompute
		case kind == obs.KindSteal:
			c[k] = classSteal
		case kind == obs.KindRun:
			c[k] = classSched
		case kind.Layer() == "rdma" || kind == obs.KindPerturb:
			c[k] = classFabric
		default:
			c[k] = numClasses
		}
	}
	return c
}()

// RequestAttribution computes the per-request sojourn decomposition of a
// serve trace, sorted by (End, ID) — the ServeStats.Done order. Only
// completed requests (those with a serve.done event) are reported.
//
// The decomposition is an interval sweep over each request's [At, End]
// window. Component intervals are the request's tagged spans — compute,
// steal, fabric (rdma + perturbation extra), run — plus join-suspension
// intervals derived from suspend/resume events; where intervals overlap,
// the highest-priority class wins (compute > steal > fabric > run >
// join-wait), and uncovered time is AdmitWait before the admission instant
// and Queue after. The components therefore partition the window by
// construction: their sum equals the sojourn to the tick regardless of how
// the underlying spans nest or overlap. The log is read once, in order, by
// the attributor that Runtime.AttributeRequests uses too. A log that breaks
// the close rule (see attributor) is attributed as far as it keeps it;
// AttributeRequests and VerifyRequests report the break.
func (t *Trace) RequestAttribution() []RequestAttribution {
	atts, _ := t.attribute()
	return atts
}

// AttributeRequests is RequestAttribution followed by CheckRequests. A log
// that breaks the close rule is an error naming the request and the event
// kind.
func (t *Trace) AttributeRequests() ([]RequestAttribution, error) {
	atts, err := t.attribute()
	if err == nil {
		err = t.CheckRequests(atts)
	}
	if err != nil {
		return nil, err
	}
	return atts, nil
}

// attribute is the attribution of t's log, its output sized from the
// completion log when there is one.
func (t *Trace) attribute() ([]RequestAttribution, error) {
	n := 0
	if t.Serve != nil {
		n = len(t.Serve.Done)
	}
	return attributeLog([][]obs.Event{t.Events}, n)
}

// attributeLog feeds a recorded log, given as its consecutive segments, to
// an attributor with room for n requests.
func attributeLog(segs [][]obs.Event, n int) ([]RequestAttribution, error) {
	a := newAttributor(n)
	for _, seg := range segs {
		for i := range seg {
			a.take(&seg[i])
		}
	}
	return a.finish()
}

// attributor is the one request attribution. It takes a serve run's events
// one at a time, in log order — from a recorded log, or live from an
// untraced Runtime.Serve, as an obs.Tracer — and keeps state only for the
// requests that have arrived and not yet closed. A request opens at its
// serve.arrive and closes at the root task's run span that follows its
// serve.done: that span ends exactly at End and is the last event tagged
// with the request. On close, the request's join waits are worked out from
// its own suspends and moves, its window is swept, and its state goes to the
// next arrival. A request that has its serve.done but no closing span when
// the input ends (a hand-built log) is closed there; one without a
// serve.done is in flight and is not reported.
//
// The close rule is checked on every input: an event tagged with a request
// that is not open (it has closed, or it never arrived) and a second
// serve.done are errors naming the request and the event kind. The first one
// is kept and the offending event is dropped.
type attributor struct {
	open  map[int64]*openRequest // by request tag
	free  []*openRequest         // closed requests, for the next arrivals
	logs  []*requestLog          // closed requests' logs, emptied
	out   []RequestAttribution   // closed requests, in close order
	edges []edge                 // sweep scratch
	err   error
	seq   int64
}

// openRequest is one open request: its lifecycle instants, and its log once
// it has one.
type openRequest struct {
	att  RequestAttribution
	done bool        // serve.done seen: the next run span ending at End closes it
	log  *requestLog // nil until the request's first component span or suspend
}

// requestLog is what a request has done so far: its component intervals,
// and the suspends of its tasks with the moves that may end them. A request
// still queued in an inbox has none, so the logs, which are recycled, number
// the requests running at once, not all those in the system.
type requestLog struct {
	ivls     []reqInterval
	tasks    []int64 // the request's tasks that have suspended, sorted
	suspends []taskInstant
	moves    []taskInstant // run starts and resume instants of those tasks
}

// taskInstant is an instant in the life of one task of a request.
type taskInstant struct {
	task int64
	at   sim.Time
}

// newAttributor returns an attributor whose output has room for n requests.
func newAttributor(n int) *attributor {
	return &attributor{open: make(map[int64]*openRequest), out: make([]RequestAttribution, 0, n)}
}

// Event takes the next event of a live run.
func (a *attributor) Event(e obs.Event) { a.take(&e) }

// Seq returns a fresh correlation id; no event the attributor reads uses it.
func (a *attributor) Seq() int64 { a.seq++; return a.seq }

// take reads the next event of the log.
func (a *attributor) take(e *obs.Event) {
	if e.Req == 0 {
		return
	}
	r := a.open[e.Req]
	if r == nil {
		if e.Kind != obs.KindServeArrive {
			a.fail(e, "is outside the request's window (it has closed, or it never arrived)")
			return
		}
		r = a.arrive(e.Req)
	}
	switch e.Kind {
	case obs.KindServeArrive:
		r.att.At = e.T
	case obs.KindServeAdmit:
		r.att.Admit = e.T
	case obs.KindServeStart:
		if r.att.Start < 0 {
			r.att.Start = e.T
		}
	case obs.KindServeDone:
		if r.done {
			a.fail(e, "is the request's second")
			return
		}
		r.done, r.att.End = true, e.T
	case obs.KindSuspend:
		l := a.logOf(r)
		if i, ok := slices.BinarySearch(l.tasks, e.Task); !ok {
			l.tasks = slices.Insert(l.tasks, i, e.Task)
		}
		l.suspends = append(l.suspends, taskInstant{e.Task, e.T})
	case obs.KindResume:
		// The resume span is [readyAt, resumed); its end is the instant the
		// suspended continuation restarted.
		r.moved(e.Task, e.T+e.Dur)
	default:
		if class := classOf[e.Kind]; class < numClasses {
			l := a.logOf(r)
			l.ivls = append(l.ivls, reqInterval{start: e.T, end: e.T + e.Dur, class: int(class)})
		}
		if e.Kind == obs.KindRun {
			r.moved(e.Task, e.T)
			if r.done && e.T+e.Dur == r.att.End {
				a.close(e.Req, r)
			}
		}
	}
}

// fail keeps the first close-rule violation.
func (a *attributor) fail(e *obs.Event, what string) {
	if a.err == nil {
		a.err = fmt.Errorf("request %d: %s event %s", e.Req-1, e.Kind, what)
	}
}

// arrive opens the request tagged tag, recycling a closed one.
func (a *attributor) arrive(tag int64) *openRequest {
	var r *openRequest
	if n := len(a.free); n > 0 {
		r, a.free = a.free[n-1], a.free[:n-1]
	} else {
		r = new(openRequest)
	}
	*r = openRequest{att: RequestAttribution{ID: tag - 1, At: -1, Admit: -1, Start: -1, End: -1}}
	a.open[tag] = r
	return r
}

// logOf returns r's log, giving it a recycled one first if it has none.
func (a *attributor) logOf(r *openRequest) *requestLog {
	if r.log == nil {
		if n := len(a.logs); n > 0 {
			r.log, a.logs = a.logs[n-1], a.logs[:n-1]
		} else {
			r.log = new(requestLog)
		}
	}
	return r.log
}

// moved notes that a task of r moved again at at — if it has suspended, the
// move may end a join wait. A move is logged after any suspend it ends (a
// suspend is logged at its instant, a move no earlier than its own), so r's
// moves are complete when it closes.
func (r *openRequest) moved(task int64, at sim.Time) {
	if l := r.log; l != nil {
		if _, ok := slices.BinarySearch(l.tasks, task); ok {
			l.moves = append(l.moves, taskInstant{task, at})
		}
	}
}

// close attributes r and recycles it and its log.
func (a *attributor) close(tag int64, r *openRequest) {
	delete(a.open, tag)
	var ivls []reqInterval
	if l := r.log; l != nil {
		l.joinWaits(r.att.End)
		ivls = l.ivls
	}
	a.edges = r.att.sweep(ivls, a.edges)
	a.out = append(a.out, r.att)
	if l := r.log; l != nil {
		l.ivls, l.tasks, l.suspends, l.moves = l.ivls[:0], l.tasks[:0], l.suspends[:0], l.moves[:0]
		a.logs = append(a.logs, l)
	}
	a.free = append(a.free, r)
}

// joinWaits adds the join-suspension intervals of a request that ended at
// end: from each suspend instant to the first sign of the task moving again
// — its next run-span start (scheduler dispatch after a won race or
// wait-queue resume), its next resume instant (greedy lost race: the task
// continues inside its still-open run span), or the request's end.
func (l *requestLog) joinWaits(end sim.Time) {
	if len(l.suspends) == 0 {
		return
	}
	slices.SortFunc(l.moves, func(x, y taskInstant) int {
		if c := cmp.Compare(x.task, y.task); c != 0 {
			return c
		}
		return cmp.Compare(x.at, y.at)
	})
	for _, s := range l.suspends {
		// The first move of s's task after s.at.
		j, _ := slices.BinarySearchFunc(l.moves, s, func(m, s taskInstant) int {
			if c := cmp.Compare(m.task, s.task); c != 0 {
				return c
			}
			if m.at <= s.at {
				return -1
			}
			return 1
		})
		wait := end
		if j < len(l.moves) && l.moves[j].task == s.task {
			wait = min(wait, l.moves[j].at)
		}
		if wait > s.at {
			l.ivls = append(l.ivls, reqInterval{start: s.at, end: wait, class: classJoin})
		}
	}
}

// finish closes the requests that are done but have no closing span, drops
// the ones in flight, and returns the attribution sorted by (End, ID) with
// the first close-rule violation. It may be called again.
func (a *attributor) finish() ([]RequestAttribution, error) {
	for tag, r := range a.open {
		if r.done {
			a.close(tag, r)
		}
	}
	clear(a.open)
	slices.SortFunc(a.out, func(x, y RequestAttribution) int {
		if c := cmp.Compare(x.End, y.End); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return a.out, a.err
}

// edge is where a component interval of class opens (delta +1) or closes
// (delta -1) in a request's sweep.
type edge struct {
	at           sim.Time
	class, delta int32
}

// sweep partitions [a.At, a.End] over the component intervals, clamped to
// that window: it sorts their edges once and walks them with a per-class
// count of open intervals, crediting each gap between consecutive edge
// instants to the highest-priority (lowest) open class, and uncovered gaps
// to AdmitWait before a.Admit and Queue after — O(k log k) in k intervals.
// edges is scratch space, returned for the next request's sweep.
func (a *RequestAttribution) sweep(ivls []reqInterval, edges []edge) []edge {
	edges = slices.Grow(edges[:0], 2*len(ivls))
	for _, iv := range ivls {
		lo, hi := max(iv.start, a.At), min(iv.end, a.End)
		if hi > lo {
			edges = append(edges, edge{lo, int32(iv.class), 1}, edge{hi, int32(iv.class), -1})
		}
	}
	slices.SortFunc(edges, func(x, y edge) int { return cmp.Compare(x.at, y.at) })
	var open [numClasses]int32
	var into [numClasses]sim.Time
	credit := func(lo, hi sim.Time) {
		for c, n := range open {
			if n > 0 {
				into[c] += hi - lo
				return
			}
		}
		switch {
		case lo < a.Admit && a.Admit < hi:
			a.AdmitWait += a.Admit - lo
			a.Queue += hi - a.Admit
		case lo < a.Admit:
			a.AdmitWait += hi - lo
		default:
			a.Queue += hi - lo
		}
	}
	lo := a.At
	for i := 0; i < len(edges); {
		hi := edges[i].at
		credit(lo, hi)
		for ; i < len(edges) && edges[i].at == hi; i++ {
			open[edges[i].class] += edges[i].delta
		}
		lo = hi
	}
	credit(lo, a.End)
	a.Compute = into[classCompute]
	a.StealXfer = into[classSteal]
	a.FabricWait = into[classFabric]
	a.Sched = into[classSched]
	a.JoinWait = into[classJoin]
	return edges
}

// CheckRequests cross-checks a per-request attribution (as returned by
// RequestAttribution) against the embedded ServeCheck block: the attribution
// must reproduce the completion log exactly (same requests, same arrival and
// completion ticks, in the same (End, ID) order) and every request's
// components must sum to its sojourn to the tick. Returns nil when everything
// matches.
func (t *Trace) CheckRequests(atts []RequestAttribution) error {
	if t.Serve == nil {
		return fmt.Errorf("trace has no serve block (not an open-system run?)")
	}
	return t.Serve.check(atts)
}

// check is CheckRequests against ck.
func (ck *ServeCheck) check(atts []RequestAttribution) error {
	if ck.Admitted != ck.Completed+ck.InFlight {
		return fmt.Errorf("serve conservation violated: admitted=%d completed=%d inflight=%d",
			ck.Admitted, ck.Completed, ck.InFlight)
	}
	if uint64(len(ck.Done)) != ck.Completed {
		return fmt.Errorf("serve check lists %d completions but completed=%d", len(ck.Done), ck.Completed)
	}
	if len(atts) != len(ck.Done) {
		return fmt.Errorf("trace attributes %d requests but stats completed %d", len(atts), len(ck.Done))
	}
	for i, a := range atts {
		d := ck.Done[i]
		if a.ID != d.ID {
			return fmt.Errorf("request #%d: trace id=%d stats id=%d", i, a.ID, d.ID)
		}
		if a.At != d.At || a.End != d.End {
			return fmt.Errorf("request %d: trace window [%d,%d] stats window [%d,%d]",
				a.ID, int64(a.At), int64(a.End), int64(d.At), int64(d.End))
		}
		if a.Sum() != a.Sojourn() {
			return fmt.Errorf("request %d: components sum to %d but sojourn is %d (Δ%d)",
				a.ID, int64(a.Sum()), int64(a.Sojourn()), int64(a.Sum()-a.Sojourn()))
		}
	}
	return nil
}

// VerifyRequests attributes the trace and checks it: AttributeRequests'
// verdict. A caller that also wants the attribution calls AttributeRequests.
func (t *Trace) VerifyRequests() error {
	_, err := t.AttributeRequests()
	return err
}

// AttributeRequests is the Serve run's request attribution, checked against
// its ServeStats (CheckRequests). A traced run's attribution is read from the
// recorder's chunks in place, the log TraceLog would merge; an untraced run's
// was made as the run went, and no log was kept. It fails unless Serve has
// run, and on a log that breaks the close rule (see attributor), naming the
// request and the event kind.
func (rt *Runtime) AttributeRequests() ([]RequestAttribution, error) {
	ck := rt.serveCheck()
	if ck == nil {
		return nil, fmt.Errorf("core: AttributeRequests needs a Serve run")
	}
	var atts []RequestAttribution
	var err error
	if rt.live != nil {
		atts, err = rt.live.finish()
	} else {
		atts, err = attributeLog(rt.rec.Segments(), len(ck.Done))
	}
	if err == nil {
		err = ck.check(atts)
	}
	if err != nil {
		return nil, err
	}
	return atts, nil
}

// Percentile returns the q-quantile of a sorted sample as an exact order
// statistic (the ⌈n·q⌉-th smallest, clamped to the sample) — the same rule
// the serve experiment uses for its sojourn bands, exported so trace-side
// tables cross-check against experiment rows digit-for-digit.
func Percentile(sorted []sim.Time, q float64) sim.Time {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(float64(n)*q+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
