package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

// TestServeRequestConservationEveryCell is the central invariant of the
// request-attribution pass: on every policy × shard-count serve cell, each
// completed request's components sum exactly to its sojourn and the whole
// attribution cross-checks against the embedded serve counters to the tick.
func TestServeRequestConservationEveryCell(t *testing.T) {
	for _, pol := range allPolicies {
		for _, shards := range []int{1, 4} {
			reqs := serveTrace(20, 700*sim.Nanosecond, 8)
			st, trJSON, _ := runServe(t, pol, 5, shards, reqs, 0)
			tr, err := ReadTraceJSON(bytes.NewReader(trJSON))
			if err != nil {
				t.Fatalf("%v shards=%d: reread trace: %v", pol, shards, err)
			}
			if err := tr.VerifyRequests(); err != nil {
				t.Fatalf("%v shards=%d: %v", pol, shards, err)
			}
			requestChecksAgree(t, tr)
			atts := tr.RequestAttribution()
			if len(atts) != len(st.Done) {
				t.Fatalf("%v shards=%d: %d attributions, %d completions", pol, shards, len(atts), len(st.Done))
			}
			var compute sim.Time
			for i, a := range atts {
				if a.Sum() != a.Sojourn() {
					t.Errorf("%v shards=%d: request %d components sum %v != sojourn %v",
						pol, shards, a.ID, a.Sum(), a.Sojourn())
				}
				if a.At != st.Done[i].At || a.End != st.Done[i].End || a.ID != st.Done[i].ID {
					t.Errorf("%v shards=%d: attribution[%d] window mismatch vs Done", pol, shards, i)
				}
				if a.Admit != a.At {
					t.Errorf("%v shards=%d: request %d admit %v != arrive %v (no admission delay exists yet)",
						pol, shards, a.ID, a.Admit, a.At)
				}
				if a.AdmitWait != 0 {
					t.Errorf("%v shards=%d: request %d nonzero admit-wait %v", pol, shards, a.ID, a.AdmitWait)
				}
				compute += a.Compute
			}
			if compute == 0 {
				t.Errorf("%v shards=%d: no compute attributed to any request", pol, shards)
			}
		}
	}
}

// requestChecksAgree holds VerifyRequests to CheckRequests over a freshly
// built attribution — same verdict, same words — on tr as recorded and on
// copies with a counter off by one or one completion moved by a tick, which
// both must refuse.
func requestChecksAgree(t *testing.T, tr *Trace) {
	t.Helper()
	recorded := tr.Serve
	defer func() { tr.Serve = recorded }()
	for name, corrupt := range map[string]func(*ServeCheck){
		"recorded":  func(*ServeCheck) {},
		"completed": func(c *ServeCheck) { c.Completed++ },
		"admitted":  func(c *ServeCheck) { c.Admitted++ },
		"window": func(c *ServeCheck) {
			c.Done = append([]RequestDone(nil), c.Done...)
			c.Done[0].End++
		},
	} {
		ck := *recorded
		corrupt(&ck)
		tr.Serve = &ck
		verr, cerr := tr.VerifyRequests(), tr.CheckRequests(tr.RequestAttribution())
		if fmt.Sprint(verr) != fmt.Sprint(cerr) || (name == "recorded") != (verr == nil) {
			t.Errorf("%s: VerifyRequests = %v, CheckRequests(RequestAttribution()) = %v", name, verr, cerr)
		}
	}
}

// TestServeRequestConservationHorizonCut: a horizon-cut run attributes
// exactly the completed requests (in-flight ones have no serve.done and are
// skipped), and the conservation still holds per completed request.
func TestServeRequestConservationHorizonCut(t *testing.T) {
	for _, pol := range allPolicies {
		reqs := serveTrace(30, 2*sim.Microsecond, 10)
		st, trJSON, _ := runServe(t, pol, 3, 1, reqs, 20*sim.Microsecond)
		tr, err := ReadTraceJSON(bytes.NewReader(trJSON))
		if err != nil {
			t.Fatalf("%v: reread trace: %v", pol, err)
		}
		if err := tr.VerifyRequests(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if got := uint64(len(tr.RequestAttribution())); got != st.Completed {
			t.Fatalf("%v: attributed %d requests, completed %d", pol, got, st.Completed)
		}
	}
}

// TestServeDoneSortedByEndID: the ServeStats.Done ordering contract.
func TestServeDoneSortedByEndID(t *testing.T) {
	st, _, _ := runServe(t, ContGreedy, 5, 1, serveTrace(24, 500*sim.Nanosecond, 8), 0)
	for i := 1; i < len(st.Done); i++ {
		a, b := st.Done[i-1], st.Done[i]
		if b.End < a.End || (b.End == a.End && b.ID <= a.ID) {
			t.Fatalf("Done not sorted by (End, ID): [%d]=%+v then [%d]=%+v", i-1, a, i, b)
		}
	}
}

// TestServeRequestIDValidation: request IDs key the attribution, so Serve
// rejects negative and duplicate IDs loudly.
func TestServeRequestIDValidation(t *testing.T) {
	for name, reqs := range map[string][]Request{
		"negative":  {{ID: -1, At: 0, Fn: fibTask(3)}},
		"duplicate": {{ID: 4, At: 0, Fn: fibTask(3)}, {ID: 4, At: 10, Fn: fibTask(3)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s request ID did not panic", name)
				}
			}()
			New(testConfig(ContGreedy, 2)).Serve(reqs, 0)
		}()
	}
}

// TestClosedSystemTraceHasNoRequestFields: request tagging must be
// invisible outside serve mode — no req field, no serve block, no serve
// lifecycle events — so committed closed-system trace fixtures stay
// byte-identical.
func TestClosedSystemTraceHasNoRequestFields(t *testing.T) {
	cfg := testConfig(ContGreedy, 4)
	cfg.Trace = true
	rt := New(cfg)
	rt.Run(fibTask(12))
	var buf bytes.Buffer
	if err := rt.TraceLog().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{`"req":`, `"serve":`, `"serve.`} {
		if strings.Contains(buf.String(), needle) {
			t.Errorf("closed-system trace contains %s", needle)
		}
	}
}

// TestServeTraceLifecycleEvents: every admitted-and-completed request
// leaves exactly one arrive/admit/start/done quadruple, in causal order.
func TestServeTraceLifecycleEvents(t *testing.T) {
	for _, pol := range allPolicies {
		_, trJSON, _ := runServe(t, pol, 4, 1, serveTrace(12, 600*sim.Nanosecond, 6), 0)
		tr, err := ReadTraceJSON(bytes.NewReader(trJSON))
		if err != nil {
			t.Fatal(err)
		}
		type life struct{ arrive, admit, start, done int }
		counts := map[int64]*life{}
		for _, e := range tr.Events {
			if e.Kind.Layer() != "serve" {
				continue
			}
			l := counts[e.Req]
			if l == nil {
				l = &life{}
				counts[e.Req] = l
			}
			switch e.Kind.String() {
			case "serve.arrive":
				l.arrive++
			case "serve.admit":
				l.admit++
			case "serve.start":
				l.start++
			case "serve.done":
				l.done++
			}
		}
		if len(counts) != 12 {
			t.Fatalf("%v: lifecycle events for %d requests, want 12", pol, len(counts))
		}
		for tag, l := range counts {
			if l.arrive != 1 || l.admit != 1 || l.start != 1 || l.done != 1 {
				t.Errorf("%v: request tag %d lifecycle %+v, want 1/1/1/1", pol, tag, *l)
			}
		}
	}
}

// TestServeChromeTraceSlowRequests: serve traces grow per-request span-tree
// processes for the slowest requests plus request flow arrows; closed
// traces don't.
func TestServeChromeTraceSlowRequests(t *testing.T) {
	_, trJSON, _ := runServe(t, ContGreedy, 4, 1, serveTrace(10, 600*sim.Nanosecond, 7), 0)
	tr, err := ReadTraceJSON(bytes.NewReader(trJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	slow, reqFlows := 0, 0
	for _, e := range doc.TraceEvents {
		if e["name"] == "process_name" {
			if args, ok := e["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok && strings.HasPrefix(n, "slow request") {
					slow++
				}
			}
		}
		if e["cat"] == "req" {
			reqFlows++
		}
	}
	if slow != slowRequestK {
		t.Errorf("%d slow-request processes, want %d", slow, slowRequestK)
	}
	if reqFlows < 2*slowRequestK {
		t.Errorf("%d request flow events, want at least %d", reqFlows, 2*slowRequestK)
	}

	// Closed-system export: no slow-request processes.
	cfg := testConfig(ContGreedy, 4)
	cfg.Trace = true
	rt := New(cfg)
	rt.Run(fibTask(10))
	buf.Reset()
	if err := rt.TraceLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "slow request") {
		t.Error("closed-system Chrome trace contains slow-request processes")
	}
}

// TestPercentileOrderStatistic: Percentile is the exact ⌈n·q⌉-th order
// statistic with clamping.
func TestPercentileOrderStatistic(t *testing.T) {
	s := []sim.Time{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want sim.Time
	}{
		{0, 10}, {0.5, 50}, {0.99, 100}, {0.999, 100}, {1, 100}, {0.1, 10}, {0.11, 20},
	}
	for _, c := range cases {
		if got := Percentile(s, c.q); got != c.want {
			t.Errorf("Percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

// TestRequestAttributionMatchesReference holds RequestAttribution to
// referenceRequestAttribution, a one-pass, map-keyed implementation of the
// same decomposition, on the committed serve trace fixture, on a fresh serve
// trace under every policy, on a horizon-cut one and on a hand-built trace
// whose join wait only a resume instant ends. At least one request
// must have waited at a join, so the suspend-only second pass is exercised.
func TestRequestAttributionMatchesReference(t *testing.T) {
	f, err := os.Open("../../cmd/repro/testdata/trace_serve_micro.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fixture, err := ReadTraceJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*Trace{"trace_serve_micro.json": fixture}
	record := func(name string, pol Policy, horizon sim.Time) {
		st, trJSON, _ := runServe(t, pol, 4, 1, serveTrace(30, 2*sim.Microsecond, 10), horizon)
		if horizon > 0 && st.InFlight == 0 {
			t.Fatalf("%s: the horizon cut no request", name)
		}
		tr, err := ReadTraceJSON(bytes.NewReader(trJSON))
		if err != nil {
			t.Fatal(err)
		}
		traces[name] = tr
	}
	for _, pol := range allPolicies {
		record(pol.String(), pol, 0)
	}
	record("horizon-cut", ContGreedy, 40*sim.Microsecond)
	// A task that suspends at the end of its run span and restarts at a
	// resume instant (20 → 40) well before its next run span (60): only the
	// resume ends its join wait. No recorded trace above has that shape.
	ev := func(t sim.Time, dur sim.Time, k obs.Kind) obs.Event {
		return obs.Event{T: t, Dur: dur, Kind: k, Task: 5, Peer: -1, Req: 1}
	}
	traces["resume-bounded join"] = &Trace{Events: []obs.Event{
		ev(0, 0, obs.KindServeArrive), ev(0, 0, obs.KindServeAdmit), ev(0, 0, obs.KindServeStart),
		ev(0, 20, obs.KindRun), ev(20, 0, obs.KindSuspend), ev(30, 10, obs.KindResume),
		ev(60, 40, obs.KindRun), ev(70, 10, obs.KindCompute), ev(100, 0, obs.KindServeDone),
	}}
	joinWaits := 0
	for name, tr := range traces {
		got, want := tr.RequestAttribution(), referenceRequestAttribution(tr)
		if len(want) == 0 {
			t.Errorf("%s: no completed request to compare", name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: attribution differs from the reference:\ngot  %+v\nwant %+v", name, got, want)
		}
		for _, a := range got {
			if a.JoinWait > 0 {
				joinWaits++
			}
		}
	}
	if joinWaits == 0 {
		t.Error("no request waited at a join: the join-suspension pass went untested")
	}
}

// referenceRequestAttribution is RequestAttribution as one pass over the
// events into maps keyed by request tag and (tag, task), collecting every
// run start and resume instant whether or not its task ever suspended.
func referenceRequestAttribution(t *Trace) []RequestAttribution {
	type taskKey struct{ tag, task int64 }
	life := make(map[int64]*RequestAttribution) // by request tag
	ivls := make(map[int64][]reqInterval)
	suspends := make(map[taskKey][]sim.Time)
	runStarts := make(map[taskKey][]sim.Time)
	resumes := make(map[taskKey][]sim.Time)
	reqOf := func(tag int64) *RequestAttribution {
		a := life[tag]
		if a == nil {
			a = &RequestAttribution{ID: tag - 1, At: -1, Admit: -1, Start: -1, End: -1}
			life[tag] = a
		}
		return a
	}
	addIvl := func(tag int64, start, dur sim.Time, class int) {
		ivls[tag] = append(ivls[tag], reqInterval{start: start, end: start + dur, class: class})
	}
	for _, e := range t.Events {
		if e.Req == 0 {
			continue
		}
		switch {
		case e.Kind == obs.KindServeArrive:
			reqOf(e.Req).At = e.T
		case e.Kind == obs.KindServeAdmit:
			reqOf(e.Req).Admit = e.T
		case e.Kind == obs.KindServeStart:
			if a := reqOf(e.Req); a.Start < 0 {
				a.Start = e.T
			}
		case e.Kind == obs.KindServeDone:
			reqOf(e.Req).End = e.T
		case e.Kind == obs.KindCompute:
			addIvl(e.Req, e.T, e.Dur, classCompute)
		case e.Kind == obs.KindSteal:
			addIvl(e.Req, e.T, e.Dur, classSteal)
		case e.Kind.Layer() == "rdma" || e.Kind == obs.KindPerturb:
			addIvl(e.Req, e.T, e.Dur, classFabric)
		case e.Kind == obs.KindRun:
			addIvl(e.Req, e.T, e.Dur, classSched)
			runStarts[taskKey{e.Req, e.Task}] = append(runStarts[taskKey{e.Req, e.Task}], e.T)
		case e.Kind == obs.KindSuspend:
			suspends[taskKey{e.Req, e.Task}] = append(suspends[taskKey{e.Req, e.Task}], e.T)
		case e.Kind == obs.KindResume:
			resumes[taskKey{e.Req, e.Task}] = append(resumes[taskKey{e.Req, e.Task}], e.T+e.Dur)
		}
	}
	for k, ss := range suspends {
		a := life[k.tag]
		if a == nil {
			continue
		}
		starts := runStarts[k]
		res := resumes[k]
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
		for _, s := range ss {
			end := a.End
			for _, r := range starts {
				if r > s && r < end {
					end = r
					break
				}
			}
			for _, r := range res {
				if r > s && r < end {
					end = r
					break
				}
			}
			if end > s {
				ivls[k.tag] = append(ivls[k.tag], reqInterval{start: s, end: end, class: classJoin})
			}
		}
	}
	var out []RequestAttribution
	for tag, a := range life {
		if a.At < 0 || a.End < 0 {
			continue
		}
		referenceSweep(a, ivls[tag])
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// referenceSweep is RequestAttribution.sweep with its own bounds slice,
// sorted by sort.Slice.
func referenceSweep(a *RequestAttribution, ivls []reqInterval) {
	bounds := []sim.Time{a.At, a.End}
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
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
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
}
