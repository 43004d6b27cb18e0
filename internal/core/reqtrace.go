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
// the underlying spans nest or overlap. Runtime.AttributeRequests computes
// the same from a traced run's recorder, in place.
func (t *Trace) RequestAttribution() []RequestAttribution {
	return attributeRequests([][]obs.Event{t.Events})
}

// requestSlots numbers request tags densely in first-seen order. A request's
// events tend to come in runs, so the last lookup is cached.
type requestSlots struct {
	of      map[int64]int
	lastTag int64 // 0, no request's tag, until the first hit
	last    int
}

func (s *requestSlots) lookup(tag int64) (int, bool) {
	if tag == s.lastTag {
		return s.last, true
	}
	i, ok := s.of[tag]
	if ok {
		s.lastTag, s.last = tag, i
	}
	return i, ok
}

// attributeRequests is RequestAttribution over an event log given as its
// consecutive segments, read in place. It holds every completed request's
// component intervals in one exact-size array: a counting pass collects the
// lifecycle instants, counts each request's intervals and lists the
// suspends; the join-suspension intervals are then resolved; a fill pass
// writes each request's intervals into its range of the array, and each
// range is swept. What it allocates besides grows with requests and
// suspended tasks, not with intervals.
func attributeRequests(segs [][]obs.Event) []RequestAttribution {
	type request struct {
		att    RequestAttribution
		off, n int // its intervals, ivls[off:off+n]; n counts them first
	}
	type taskKey struct{ tag, task int64 }
	type suspend struct {
		slot, task int // the request's slot, the suspended task's index
		at, end    sim.Time
	}
	var (
		reqs     []request
		suspends []suspend
		tasks    map[taskKey]int // the suspended tasks, numbered
	)
	slots := requestSlots{of: make(map[int64]int)}
	for _, seg := range segs {
		for i := range seg {
			e := &seg[i]
			if e.Req == 0 {
				continue
			}
			slot, ok := slots.lookup(e.Req)
			if !ok {
				slot = len(reqs)
				slots.of[e.Req] = slot
				reqs = append(reqs, request{att: RequestAttribution{ID: e.Req - 1, At: -1, Admit: -1, Start: -1, End: -1}})
			}
			r := &reqs[slot]
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
				r.att.End = e.T
			case obs.KindSuspend:
				if tasks == nil {
					tasks = make(map[taskKey]int)
				}
				k := taskKey{e.Req, e.Task}
				task, ok := tasks[k]
				if !ok {
					task = len(tasks)
					tasks[k] = task
				}
				suspends = append(suspends, suspend{slot: slot, task: task, at: e.T})
			default:
				if classOf[e.Kind] < numClasses {
					r.n++
				}
			}
		}
	}
	// Join-suspension intervals: from each suspend instant to the first
	// sign of the task moving again — its next run-span start (scheduler
	// dispatch after a won race or wait-queue resume), its next resume
	// instant (greedy lost race: the task continues inside its still-open
	// run span), or the request's end. The resume event's span is [readyAt,
	// resumed); its end is the instant the suspended continuation restarted.
	if len(suspends) > 0 {
		type move struct {
			task int
			at   sim.Time
		}
		var moves []move
		for _, seg := range segs {
			for i := range seg {
				e := &seg[i]
				if e.Req == 0 || (e.Kind != obs.KindRun && e.Kind != obs.KindResume) {
					continue
				}
				if task, ok := tasks[taskKey{e.Req, e.Task}]; ok {
					at := e.T
					if e.Kind == obs.KindResume {
						at += e.Dur
					}
					moves = append(moves, move{task, at})
				}
			}
		}
		slices.SortFunc(moves, func(a, b move) int {
			if c := cmp.Compare(a.task, b.task); c != 0 {
				return c
			}
			return cmp.Compare(a.at, b.at)
		})
		for i := range suspends {
			s := &suspends[i]
			r := &reqs[s.slot]
			// The first move of s's task after s.at.
			j, _ := slices.BinarySearchFunc(moves, move{s.task, s.at}, func(m, target move) int {
				if c := cmp.Compare(m.task, target.task); c != 0 {
					return c
				}
				if m.at <= target.at {
					return -1
				}
				return 1
			})
			s.end = r.att.End
			if j < len(moves) && moves[j].task == s.task && moves[j].at < s.end {
				s.end = moves[j].at
			}
			if s.end > s.at {
				r.n++
			}
		}
	}
	// Lay the completed requests' ranges out in one array and fill them.
	total, widest, completed := 0, 0, 0
	for i := range reqs {
		r := &reqs[i]
		if r.att.At < 0 || r.att.End < 0 {
			r.off = -1 // in-flight at the horizon cut, or a stray tag
			continue
		}
		r.off, total, widest = total, total+r.n, max(widest, r.n)
		r.n = 0
		completed++
	}
	ivls := make([]reqInterval, total)
	for _, seg := range segs {
		for i := range seg {
			e := &seg[i]
			class := int(classOf[e.Kind])
			if e.Req == 0 || class == numClasses {
				continue
			}
			slot, _ := slots.lookup(e.Req)
			if r := &reqs[slot]; r.off >= 0 {
				ivls[r.off+r.n] = reqInterval{start: e.T, end: e.T + e.Dur, class: class}
				r.n++
			}
		}
	}
	for _, s := range suspends {
		if r := &reqs[s.slot]; r.off >= 0 && s.end > s.at {
			ivls[r.off+r.n] = reqInterval{start: s.at, end: s.end, class: classJoin}
			r.n++
		}
	}
	// Sweep each completed request's window.
	out := make([]RequestAttribution, 0, completed)
	edges := make([]edge, 0, 2*widest)
	for i := range reqs {
		r := &reqs[i]
		if r.off < 0 {
			continue
		}
		edges = r.att.sweep(ivls[r.off:r.off+r.n], edges)
		out = append(out, r.att)
	}
	slices.SortFunc(out, func(a, b RequestAttribution) int {
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
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
	edges = edges[:0]
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

// VerifyRequests attributes the trace and checks it (CheckRequests). A
// caller that also wants the attribution builds it once and checks that.
func (t *Trace) VerifyRequests() error { return t.CheckRequests(t.RequestAttribution()) }

// AttributeRequests is TraceLog().RequestAttribution() followed by
// CheckRequests, read in place from the run's recorder: the recorded event
// chunks are not merged into the flat log TraceLog returns. It fails unless
// Config.Trace was set and Serve has run.
func (rt *Runtime) AttributeRequests() ([]RequestAttribution, error) {
	ck := rt.serveCheck()
	if rt.rec == nil || ck == nil {
		return nil, fmt.Errorf("core: AttributeRequests needs a traced Serve run")
	}
	atts := attributeRequests(rt.rec.Segments())
	return atts, ck.check(atts)
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
