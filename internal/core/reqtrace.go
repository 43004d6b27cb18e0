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

// RequestAttribution decomposes one request's sojourn. The components are
// disjoint and AdmitWait + Queue + Compute + StealXfer + FabricWait + Sched
// + JoinWait == End - At exactly (see Trace.RequestAttribution for the
// component semantics and the overlap-resolution priority).
type RequestAttribution struct {
	ID    int64    // caller-assigned request ID
	At    sim.Time // front-end arrival (serve.arrive)
	Admit sim.Time // inbox entry (serve.admit; == At until admission delays exist)
	Start sim.Time // root task first popped from the inbox (serve.start)
	End   sim.Time // DAG fully joined (serve.done)

	AdmitWait  sim.Time // uncovered time before Admit (0 today; the SLO-admission seam)
	Queue      sim.Time // uncovered time after Admit: inbox + deque wait, no task of this request progressing
	Compute    sim.Time // covered by this request's compute spans
	StealXfer  sim.Time // steal protocol + payload transfer moving this request's tasks
	FabricWait sim.Time // this request's one-sided fabric ops (incl. perturbation extra) outside compute/steal windows
	Sched      sim.Time // inside this request's run spans but none of the above: spawn/join/die protocol overhead
	JoinWait   sim.Time // suspended at a join with no other component of this request covering the time
}

// Sojourn is the request's end-to-end latency.
func (a RequestAttribution) Sojourn() sim.Time { return a.End - a.At }

// Sum adds the components; equal to Sojourn() on every well-formed trace.
func (a RequestAttribution) Sum() sim.Time {
	return a.AdmitWait + a.Queue + a.Compute + a.StealXfer + a.FabricWait + a.Sched + a.JoinWait
}

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
// the underlying spans nest or overlap.
//
// One pass over the events collects the lifecycle instants, the component
// intervals and the suspends. A join-suspension interval also needs the
// suspended task's later run starts and resume instants, which only a task
// that suspended has a use for; a second pass collects them for those tasks
// alone, and only when the trace has a suspend at all.
func (t *Trace) RequestAttribution() []RequestAttribution {
	// Per-request state lives in reqs, indexed through slotOf.
	type request struct {
		att  RequestAttribution
		ivls []reqInterval
	}
	var reqs []request
	slotOf := make(map[int64]int)
	type taskKey struct{ tag, task int64 }
	type suspend struct {
		key  taskKey
		slot int
		at   sim.Time
	}
	var suspends []suspend
	lastTag, slot := int64(0), -1
	for i := range t.Events {
		e := &t.Events[i]
		if e.Req == 0 {
			continue
		}
		if e.Req != lastTag {
			s, ok := slotOf[e.Req]
			if !ok {
				s = len(reqs)
				slotOf[e.Req] = s
				reqs = append(reqs, request{att: RequestAttribution{ID: e.Req - 1, At: -1, Admit: -1, Start: -1, End: -1}})
			}
			lastTag, slot = e.Req, s
		}
		r := &reqs[slot]
		class := numClasses
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
		case obs.KindCompute:
			class = classCompute
		case obs.KindSteal:
			class = classSteal
		case obs.KindRun:
			class = classSched
		case obs.KindSuspend:
			suspends = append(suspends, suspend{key: taskKey{e.Req, e.Task}, slot: slot, at: e.T})
		default:
			if e.Kind.Layer() == "rdma" || e.Kind == obs.KindPerturb {
				class = classFabric
			}
		}
		if class < numClasses {
			r.ivls = append(r.ivls, reqInterval{start: e.T, end: e.T + e.Dur, class: class})
		}
	}
	// Join-suspension intervals: from each suspend instant to the first
	// sign of the task moving again — its next run-span start (scheduler
	// dispatch after a won race or wait-queue resume), its next resume
	// instant (greedy lost race: the task continues inside its still-open
	// run span), or the request's end.
	if len(suspends) > 0 {
		type joinInputs struct{ starts, resumes []sim.Time }
		inputs := make(map[taskKey]*joinInputs, len(suspends))
		for _, s := range suspends {
			if inputs[s.key] == nil {
				inputs[s.key] = &joinInputs{}
			}
		}
		for i := range t.Events {
			e := &t.Events[i]
			if e.Req == 0 || (e.Kind != obs.KindRun && e.Kind != obs.KindResume) {
				continue
			}
			in := inputs[taskKey{e.Req, e.Task}]
			if in == nil {
				continue
			}
			if e.Kind == obs.KindRun {
				in.starts = append(in.starts, e.T)
			} else {
				// The resume event's span is [readyAt, resumed); its end is
				// the instant the suspended continuation actually restarted.
				in.resumes = append(in.resumes, e.T+e.Dur)
			}
		}
		for _, in := range inputs {
			slices.Sort(in.starts)
			slices.Sort(in.resumes)
		}
		for _, s := range suspends {
			r, in := &reqs[s.slot], inputs[s.key]
			end := r.att.End
			for _, at := range in.starts {
				if at > s.at && at < end {
					end = at
					break
				}
			}
			for _, at := range in.resumes {
				if at > s.at && at < end {
					end = at
					break
				}
			}
			if end > s.at {
				r.ivls = append(r.ivls, reqInterval{start: s.at, end: end, class: classJoin})
			}
		}
	}
	// Sweep each completed request's window.
	out := make([]RequestAttribution, 0, len(reqs))
	var bounds []sim.Time
	for i := range reqs {
		r := &reqs[i]
		if r.att.At < 0 || r.att.End < 0 {
			continue // in-flight at the horizon cut, or a stray tag
		}
		bounds = r.att.sweep(r.ivls, bounds)
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

// sweep partitions [a.At, a.End] over the component intervals by elementary
// sub-interval, crediting each to its highest-priority covering class.
// bounds is scratch space, returned for the next request's sweep.
func (a *RequestAttribution) sweep(ivls []reqInterval, bounds []sim.Time) []sim.Time {
	// Clamp to the sojourn window and collect boundaries.
	bounds = append(bounds[:0], a.At, a.End)
	if a.Admit > a.At && a.Admit < a.End {
		bounds = append(bounds, a.Admit)
	}
	clamped := ivls[:0]
	for _, iv := range ivls {
		if iv.start < a.At {
			iv.start = a.At
		}
		if iv.end > a.End {
			iv.end = a.End
		}
		if iv.end <= iv.start {
			continue
		}
		clamped = append(clamped, iv)
		bounds = append(bounds, iv.start, iv.end)
	}
	slices.Sort(bounds)
	var into [numClasses]sim.Time
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi == lo {
			continue
		}
		best := numClasses
		for _, iv := range clamped {
			if iv.start <= lo && iv.end >= hi && iv.class < best {
				best = iv.class
			}
		}
		switch {
		case best < numClasses:
			into[best] += hi - lo
		case lo < a.Admit:
			a.AdmitWait += hi - lo
		default:
			a.Queue += hi - lo
		}
	}
	a.Compute = into[classCompute]
	a.StealXfer = into[classSteal]
	a.FabricWait = into[classFabric]
	a.Sched = into[classSched]
	a.JoinWait = into[classJoin]
	return bounds
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
	ck := t.Serve
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
