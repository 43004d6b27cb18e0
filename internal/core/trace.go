package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// Execution tracing: a layered event log in the spirit of the profiling the
// paper uses for Fig. 7 and Table II (and of DelaySpotter, its reference
// [50] for attributing scheduler-caused delays). Enabled by Config.Trace
// (built-in recorder) or Config.Tracer (custom sink); events carry virtual
// timestamps and span every protocol layer: the scheduler (runs, computes,
// steals, suspends/resumes, migrations), the RDMA fabric (one span per
// remote op), the deque steal protocol (one span per chain link), remote-
// object management, messaging, and stack migration. Export as raw JSON or
// as Chrome trace format (https://ui.perfetto.dev) for visual inspection.
//
// Several scheduler-level span families are exact mirrors of RunStats
// counters — incremented at the same code site over the same window — which
// `repro analyze` exploits to cross-check the trace against the stats to
// the tick (see TraceCheck).

// TraceCheck carries the counter-derived totals that specific trace span
// families must reproduce exactly: Σ compute == BusyTime, Σ steal ==
// StealLatency, Σ steal.fail == StealSearchTime, Σ resume ==
// OutstandingTime, Σ rdma.* == FabricTime. Embedded in the trace so a
// trace file is self-contained for `repro analyze`.
type TraceCheck struct {
	BusyTime        sim.Time `json:"busy_time"`
	StealLatency    sim.Time `json:"steal_latency"`
	StealSearchTime sim.Time `json:"steal_search_time"`
	OutstandingTime sim.Time `json:"outstanding_time"`
	FabricTime      sim.Time `json:"fabric_time"`
	// PerturbTime is the fault-injection extra inside FabricTime
	// (Σ perturb.extra spans). omitempty keeps perturbation-off trace files
	// byte-identical to pre-perturbation ones.
	PerturbTime sim.Time `json:"perturb_time,omitempty"`
	StealsOK    uint64   `json:"steals_ok"`
	StealsFail  uint64   `json:"steals_fail"`
	Resumed     uint64   `json:"resumed"`
}

// Trace is the recorded event log of a run.
type Trace struct {
	Workers      int        `json:"workers"`
	CoresPerNode int        `json:"cores_per_node"`
	ExecTime     sim.Time   `json:"exec_time"`
	Check        TraceCheck `json:"check"`
	// Serve is the open-system cross-check block, present only for traces
	// recorded by Runtime.Serve (omitempty keeps closed-system trace files
	// byte-identical to pre-serve revisions). See VerifyRequests.
	Serve  *ServeCheck `json:"serve,omitempty"`
	Events []obs.Event `json:"events"` // Dur is zero for instants
}

// runFrame is one open run span (nested under ChildRtC inline execution).
type runFrame struct {
	task  int64
	req   int64 // serve request tag (request ID + 1; 0 = none)
	since sim.Time
}

// traceState is the runtime-side recording state.
type traceState struct {
	tr    obs.Tracer
	rec   *obs.Recorder // non-nil when tr is the built-in recorder
	stack [][]runFrame  // per-rank open run spans
}

func newTraceState(workers int, tr obs.Tracer, rec *obs.Recorder) *traceState {
	return &traceState{tr: tr, rec: rec, stack: make([][]runFrame, workers)}
}

// currentTask returns the task occupying rank's innermost open run span.
func (ts *traceState) currentTask(rank int) int64 {
	if s := ts.stack[rank]; len(s) > 0 {
		return s[len(s)-1].task
	}
	return -1
}

func (rt *Runtime) traceRunStart(rank int, task, req int64) {
	ts := rt.tr
	if ts == nil {
		return
	}
	ts.stack[rank] = append(ts.stack[rank], runFrame{task: task, req: req, since: rt.eng.Now()})
}

func (rt *Runtime) traceRunEnd(rank int) {
	ts := rt.tr
	if ts == nil || len(ts.stack[rank]) == 0 {
		return
	}
	s := ts.stack[rank]
	f := s[len(s)-1]
	ts.stack[rank] = s[:len(s)-1]
	rt.traceEvent(obs.Event{T: f.since, Rank: rank, Kind: obs.KindRun, Task: f.task, Peer: -1, Req: f.req})
}

// traceEvent records e as the span [e.T, now) — an instant when e.T is now.
// Every scheduler-level event whose window closes at the current virtual
// time goes through here, so a span covers exactly the window its counter
// was incremented over; an untraced runtime pays one branch.
func (rt *Runtime) traceEvent(e obs.Event) {
	if ts := rt.tr; ts != nil {
		e.Dur = rt.eng.Now() - e.T
		ts.tr.Event(e)
	}
}

// TraceLog returns the recorded trace, nil unless Config.Trace was set
// (with a custom Config.Tracer the events went to that sink instead). After
// Run it carries ExecTime and the counter-derived Check block, making the
// serialized form self-contained for `repro analyze`.
func (rt *Runtime) TraceLog() *Trace {
	if rt.tr == nil || rt.tr.rec == nil {
		return nil
	}
	t := &Trace{
		Workers:      rt.cfg.Workers,
		CoresPerNode: rt.cfg.Machine.CoresPerNode,
		Events:       rt.tr.rec.Events,
	}
	if rs := rt.lastStats; rs != nil {
		t.ExecTime = rs.ExecTime
		t.Check = TraceCheck{
			BusyTime:        rs.Work.BusyTime,
			StealLatency:    rs.Work.StealLatency,
			StealSearchTime: rs.Work.StealSearchTime,
			OutstandingTime: rs.Join.OutstandingTime,
			FabricTime:      rs.Fabric.RemoteTime,
			PerturbTime:     rs.Fabric.PerturbTime,
			StealsOK:        rs.Work.StealsOK,
			StealsFail:      rs.Work.StealsFail,
			Resumed:         rs.Join.Resumed,
		}
	}
	if ss := rt.lastServe; ss != nil {
		t.Serve = &ServeCheck{
			Admitted: ss.Admitted, Injected: ss.Injected, Completed: ss.Completed,
			InFlight: ss.InFlight, Done: ss.Done,
		}
	}
	return t
}

// WriteJSON writes the raw trace as JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ReadTraceJSON parses a trace previously written by WriteJSON. A file is
// outside input: the shape every reader below indexes by is checked here,
// once (the recording path produces it by construction), and a Chrome export
// — the other thing -trace writes — is named for what it is.
func ReadTraceJSON(r io.Reader) (*Trace, error) {
	var file struct {
		Trace
		Chrome json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, err
	}
	if file.Chrome != nil {
		return nil, errors.New("a Chrome export (top-level traceEvents); analyze reads -trace-format json")
	}
	t := file.Trace
	if t.Workers < 0 {
		return nil, fmt.Errorf("workers must be non-negative, got %d", t.Workers)
	}
	if t.ExecTime < 0 {
		return nil, fmt.Errorf("exec_time must be non-negative, got %d", int64(t.ExecTime))
	}
	for i, e := range t.Events {
		if e.Rank < 0 || e.Rank >= t.Workers {
			return nil, fmt.Errorf("events[%d]: rank %d outside [0, %d) (workers)", i, e.Rank, t.Workers)
		}
		if e.T < 0 {
			return nil, fmt.Errorf("events[%d]: t must be non-negative, got %d", i, int64(e.T))
		}
		if e.Dur < 0 {
			return nil, fmt.Errorf("events[%d]: dur must be non-negative, got %d", i, int64(e.Dur))
		}
	}
	return &t, nil
}

// chromeEvent is one entry of the Chrome trace format ("traceEvents").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Per-rank timeline rows of the Chrome export. Each rank gets three rows so
// overlapping span families nest cleanly: scheduler spans (runs, steals),
// protocol spans (deque/remobj/uniaddr/msg — victim-side deque phases can
// straddle the victim's own run spans), and raw rdma op spans (which
// duplicate the protocol windows they make up).
const (
	trackSched = 0
	trackProto = 1
	trackRDMA  = 2
	numTracks  = 3
)

func trackOf(k obs.Kind) int {
	switch k.Layer() {
	case "rdma":
		return trackRDMA
	case "sched":
		return trackSched
	default:
		return trackProto
	}
}

// WriteChromeTrace writes the trace in Chrome trace format: ranks are
// grouped into node processes (pid = rank / CoresPerNode), each rank owning
// three named timeline rows (scheduler / protocol / rdma). Events are
// emitted in a stable order (sorted by time, then rank), prefixed by
// process_name / thread_name metadata so Perfetto renders labelled,
// identical timelines across runs. Successful steals get flow arrows from
// the thief's protocol span to the victim-side payload read. Open the file
// in https://ui.perfetto.dev or chrome://tracing.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	cpn := t.CoresPerNode
	if cpn < 1 {
		cpn = 1
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{}
	// Metadata first: node process names, per-rank thread names and sort
	// order. Emitted for every rank so empty rows are still labelled.
	nodes := (t.Workers + cpn - 1) / cpn
	for node := 0; node < nodes; node++ {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: node,
			Args: map[string]any{"name": fmt.Sprintf("node %d", node)},
		})
	}
	trackName := [numTracks]string{"rank %d", "rank %d protocol", "rank %d rdma"}
	for rank := 0; rank < t.Workers; rank++ {
		for track := 0; track < numTracks; track++ {
			tid := rank*numTracks + track
			out.TraceEvents = append(out.TraceEvents, threadMeta(rank/cpn, tid, fmt.Sprintf(trackName[track], rank))...)
		}
	}
	// Stable event order: by virtual time, then rank; ties keep emission
	// (engine-dispatch) order, which is itself deterministic.
	evs := make([]obs.Event, len(t.Events))
	copy(evs, t.Events)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].T != evs[j].T {
			return evs[i].T < evs[j].T
		}
		return evs[i].Rank < evs[j].Rank
	})
	// Flow arrows: thief-side deque.steal span start -> victim-side payload
	// read, matched by correlation id.
	type flowEnd struct {
		ts       float64
		pid, tid int
	}
	flowSrc := make(map[int64]flowEnd)
	flowDst := make(map[int64]flowEnd)
	for i := range evs {
		e := &evs[i]
		pid := e.Rank / cpn
		tid := e.Rank*numTracks + trackOf(e.Kind)
		args := map[string]any{"task": e.Task}
		if e.Peer >= 0 {
			args["peer"] = e.Peer
		}
		if e.Size > 0 {
			args["size"] = e.Size
		}
		if e.ID != 0 {
			switch e.Kind {
			case obs.KindDequeSteal:
				flowSrc[e.ID] = flowEnd{ts: e.T.Micros(), pid: pid, tid: tid}
			case obs.KindDequeRead:
				flowDst[e.ID] = flowEnd{ts: e.T.Micros(), pid: pid, tid: tid}
			}
			args["chain"] = e.ID
		}
		out.TraceEvents = append(out.TraceEvents, chromeSpan(e, pid, tid, args))
	}
	// Emit flow pairs in id order for stable output.
	ids := make([]int64, 0, len(flowSrc))
	for id := range flowSrc {
		if _, ok := flowDst[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s, f := flowSrc[id], flowDst[id]
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "steal", Ph: "s", Cat: "steal", ID: id, Ts: s.ts, Pid: s.pid, Tid: s.tid},
			chromeEvent{Name: "steal", Ph: "f", Cat: "steal", ID: id, BP: "e", Ts: f.ts, Pid: f.pid, Tid: f.tid})
	}
	t.appendSlowRequests(&out.TraceEvents, evs, nodes, cpn)
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// threadMeta labels timeline row (pid, tid) and fixes its position.
func threadMeta(pid, tid int, name string) []chromeEvent {
	return []chromeEvent{
		{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}},
		{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"sort_index": tid}},
	}
}

// chromeSpan renders one event on timeline row (pid, tid): a complete ("X")
// span, or a thread-scoped instant when it has no duration.
func chromeSpan(e *obs.Event, pid, tid int, args map[string]any) chromeEvent {
	ce := chromeEvent{Name: string(e.Kind), Ph: "X", Ts: e.T.Micros(), Dur: e.Dur.Micros(), Pid: pid, Tid: tid, Args: args}
	switch {
	case e.Kind == obs.KindRun:
		ce.Name = fmt.Sprintf("task %d", e.Task)
	case e.Kind == obs.KindSteal:
		ce.Name = fmt.Sprintf("steal from %d", e.Peer)
	case e.Kind == obs.KindResume:
		// The span [readyAt, resume) is the outstanding-join wait; the
		// rank was doing other work meanwhile, so render the resume
		// instant and keep the wait as an argument.
		ce.Ph, ce.Ts, ce.Dur = "i", (e.T + e.Dur).Micros(), 0
		args["s"] = "t"
		args["oj_wait_us"] = e.Dur.Micros()
	case e.Dur == 0:
		ce.Ph = "i"
		args["s"] = "t"
	}
	return ce
}

// slowRequestK is how many of a serve trace's slowest requests get their
// own span-tree process in the Chrome export.
const slowRequestK = 3

// reqFlowBase offsets per-request flow-arrow ids away from the steal-chain
// id space.
const reqFlowBase = 1_000_000

// slowRequest is one selected request's span-tree process under
// construction.
type slowRequest struct {
	pid                 int
	rows                []chromeEvent
	taskTid             map[int64]int
	arrive, start, done *obs.Event
}

// appendSlowRequests adds one Chrome process per slowest request of a serve
// trace (pid = nodes + i): a lifecycle row (arrival/admit/start/done
// instants, steals, fabric ops) plus one row per task of the request's DAG
// in first-run order — the request's full span tree, isolated from the
// rank timelines. Per-request flow arrows (arrive → start → done) are drawn
// on the rank timelines so the request's path across ranks is visible in
// context. Closed-system traces have no Serve block and are unaffected.
func (t *Trace) appendSlowRequests(out *[]chromeEvent, evs []obs.Event, nodes, cpn int) {
	if t.Serve == nil || len(t.Serve.Done) == 0 {
		return
	}
	sel := make([]RequestDone, len(t.Serve.Done))
	copy(sel, t.Serve.Done)
	sort.Slice(sel, func(i, j int) bool {
		if si, sj := sel[i].Sojourn(), sel[j].Sojourn(); si != sj {
			return si > sj
		}
		return sel[i].ID < sel[j].ID
	})
	if len(sel) > slowRequestK {
		sel = sel[:slowRequestK]
	}
	byTag := make(map[int64]*slowRequest, len(sel))
	for i, d := range sel {
		pid := nodes + i
		byTag[d.ID+1] = &slowRequest{pid: pid, taskTid: map[int64]int{}, rows: []chromeEvent{
			{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("slow request %d (sojourn %.3f us)", d.ID, d.Sojourn().Micros())},
			},
			{
				Name: "process_sort_index", Ph: "M", Pid: pid,
				Args: map[string]any{"sort_index": pid},
			},
			{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": "lifecycle/protocol"},
			},
		}}
	}
	for j := range evs {
		e := &evs[j]
		r := byTag[e.Req]
		if r == nil {
			continue
		}
		switch e.Kind {
		case obs.KindServeArrive:
			r.arrive = e
		case obs.KindServeStart:
			if r.start == nil {
				r.start = e
			}
		case obs.KindServeDone:
			r.done = e
		}
		tid := 0
		if e.Kind == obs.KindRun || e.Kind == obs.KindCompute || e.Kind == obs.KindSuspend {
			id, ok := r.taskTid[e.Task]
			if !ok {
				id = 1 + len(r.taskTid)
				r.taskTid[e.Task] = id
				r.rows = append(r.rows, threadMeta(r.pid, id, fmt.Sprintf("task %d", e.Task))...)
			}
			tid = id
		}
		r.rows = append(r.rows, chromeSpan(e, r.pid, tid, map[string]any{"task": e.Task, "rank": e.Rank}))
	}
	for _, d := range sel {
		r := byTag[d.ID+1]
		*out = append(*out, r.rows...)
		// Flow arrows on the rank timelines: arrive → first start → done.
		hop := func(ph string, e *obs.Event, bp string) {
			*out = append(*out, chromeEvent{
				Name: fmt.Sprintf("request %d", d.ID), Ph: ph, Cat: "req", ID: reqFlowBase + d.ID + 1, BP: bp,
				Ts: e.T.Micros(), Pid: e.Rank / cpn, Tid: e.Rank * numTracks,
			})
		}
		if r.arrive != nil && r.done != nil {
			hop("s", r.arrive, "")
			if r.start != nil {
				hop("t", r.start, "")
			}
			hop("f", r.done, "e")
		}
	}
}

// RankAttribution is the DelaySpotter-style decomposition of one rank's
// virtual time, derived from the event log alone.
type RankAttribution struct {
	Rank        int
	Busy        sim.Time // Σ compute spans (== WorkerStats.BusyTime per rank)
	StealSearch sim.Time // Σ steal.fail spans: searching for work, finding none
	StealXfer   sim.Time // Σ steal spans: successful protocol + payload transfer
	OJWait      sim.Time // Σ resume spans: outstanding joins waiting, attributed to the resuming rank
	FabricWait  sim.Time // Σ rdma.* spans issued by this rank (overlaps the protocol buckets above)
	PerturbWait sim.Time // Σ perturb.extra spans: fault-injection extra inside FabricWait
	Steals      uint64
	Fails       uint64
	Resumes     uint64
}

// Attribution decomposes each worker's time into the analyze buckets.
// Busy/StealSearch/StealXfer/OJWait are disjoint scheduler windows;
// FabricWait is the raw fabric-occupancy view of the same time and overlaps
// them. Totals are cross-checkable against Check (see CheckRanks).
func (t *Trace) Attribution() []RankAttribution {
	out := make([]RankAttribution, t.Workers)
	for i := range out {
		out[i].Rank = i
	}
	for _, e := range t.Events {
		a := &out[e.Rank]
		switch {
		case e.Kind == obs.KindCompute:
			a.Busy += e.Dur
		case e.Kind == obs.KindStealFail:
			a.StealSearch += e.Dur
			a.Fails++
		case e.Kind == obs.KindSteal:
			a.StealXfer += e.Dur
			a.Steals++
		case e.Kind == obs.KindResume:
			a.OJWait += e.Dur
			a.Resumes++
		case e.Kind.Layer() == "rdma":
			a.FabricWait += e.Dur
		case e.Kind == obs.KindPerturb:
			a.PerturbWait += e.Dur
		}
	}
	return out
}

// CheckRow is one total the event log must reproduce to the tick: a span
// family summed over the trace beside the RunStats counter incremented at the
// same code site over the same window (the embedded Check block).
type CheckRow struct {
	Name            string
	Trace, Counters any // sim.Time or an event count; print with %v
}

// stealCounts is the steal-attempt row: successes and failures side by side.
type stealCounts struct{ ok, fail uint64 }

func (c stealCounts) String() string { return fmt.Sprintf("%d / %d", c.ok, c.fail) }

// CheckRanks sums a per-rank attribution (as returned by Attribution) and
// holds every total against the Check block. It returns the sum, the
// compared rows — what `repro analyze` prints — and an error naming the first
// row that disagrees: any nonzero difference is an instrumentation or
// scheduler accounting bug.
func (t *Trace) CheckRanks(att []RankAttribution) (RankAttribution, []CheckRow, error) {
	var tot RankAttribution
	for _, a := range att {
		tot.Busy += a.Busy
		tot.StealSearch += a.StealSearch
		tot.StealXfer += a.StealXfer
		tot.OJWait += a.OJWait
		tot.FabricWait += a.FabricWait
		tot.PerturbWait += a.PerturbWait
		tot.Steals += a.Steals
		tot.Fails += a.Fails
		tot.Resumes += a.Resumes
	}
	ck := t.Check
	rows := []CheckRow{
		{"busy time", tot.Busy, ck.BusyTime},
		{"steal latency", tot.StealXfer, ck.StealLatency},
		{"steal search", tot.StealSearch, ck.StealSearchTime},
		{"outstanding-join time", tot.OJWait, ck.OutstandingTime},
		{"fabric time", tot.FabricWait, ck.FabricTime},
		{"perturb time", tot.PerturbWait, ck.PerturbTime},
		{"steals ok / fail", stealCounts{tot.Steals, tot.Fails}, stealCounts{ck.StealsOK, ck.StealsFail}},
		{"resumes", tot.Resumes, ck.Resumed},
	}
	for _, r := range rows {
		if r.Trace != r.Counters {
			return tot, rows, fmt.Errorf("trace/stats mismatch on %s: trace=%d stats=%d", r.Name, r.Trace, r.Counters)
		}
	}
	return tot, rows, nil
}

// Verify attributes the trace and checks it against the embedded counters
// (CheckRanks); nil when the trace and the stats agree exactly.
func (t *Trace) Verify() error {
	_, _, err := t.CheckRanks(t.Attribution())
	return err
}
