package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"contsteal/internal/allocs"
	"contsteal/internal/obs"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// TestServeRequestConservationEveryCell is the central invariant of the
// request-attribution pass: on every policy's serve cell, each completed
// request's components sum exactly to its sojourn and the whole attribution
// cross-checks against the embedded serve counters to the tick.
func TestServeRequestConservationEveryCell(t *testing.T) {
	for _, pol := range allPolicies {
		reqs := serveTrace(20, 700*sim.Nanosecond, 8)
		st, trJSON, _ := runServe(t, pol, 5, reqs, 0)
		tr, err := ReadTraceJSON(bytes.NewReader(trJSON))
		if err != nil {
			t.Fatalf("%v: reread trace: %v", pol, err)
		}
		if err := tr.VerifyRequests(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		requestChecksAgree(t, tr)
		atts := tr.RequestAttribution()
		if len(atts) != len(st.Done) {
			t.Fatalf("%v: %d attributions, %d completions", pol, len(atts), len(st.Done))
		}
		var compute sim.Time
		for i, a := range atts {
			if a.Sum() != a.Sojourn() {
				t.Errorf("%v: request %d components sum %v != sojourn %v",
					pol, a.ID, a.Sum(), a.Sojourn())
			}
			if a.At != st.Done[i].At || a.End != st.Done[i].End || a.ID != st.Done[i].ID {
				t.Errorf("%v: attribution[%d] window mismatch vs Done", pol, i)
			}
			if a.Admit != a.At {
				t.Errorf("%v: request %d admit %v != arrive %v (no admission delay exists yet)",
					pol, a.ID, a.Admit, a.At)
			}
			if a.AdmitWait != 0 {
				t.Errorf("%v: request %d nonzero admit-wait %v", pol, a.ID, a.AdmitWait)
			}
			compute += a.Compute
		}
		if compute == 0 {
			t.Errorf("%v: no compute attributed to any request", pol)
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
		st, trJSON, _ := runServe(t, pol, 3, reqs, 20*sim.Microsecond)
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
	st, _, _ := runServe(t, ContGreedy, 5, serveTrace(24, 500*sim.Nanosecond, 8), 0)
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
		_, trJSON, _ := runServe(t, pol, 4, serveTrace(12, 600*sim.Nanosecond, 6), 0)
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
	_, trJSON, _ := runServe(t, ContGreedy, 4, serveTrace(10, 600*sim.Nanosecond, 7), 0)
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
		st, trJSON, _ := runServe(t, pol, 4, serveTrace(30, 2*sim.Microsecond, 10), horizon)
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

// referenceSweep is the quadratic form of RequestAttribution.sweep: it cuts
// the window at every interval boundary (and at Admit) and credits each
// elementary sub-interval to the lowest class among the intervals that
// cover it, found by scanning them all.
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

// FuzzRequestSweep holds the O(k log k) edge sweep to referenceSweep on
// random interval sets: overlapping classes, zero-length and reversed
// intervals, intervals snapped to or straddling At, Admit and End, and
// admission instants inside, on and outside the window (or absent).
func FuzzRequestSweep(f *testing.F) {
	for seed := range int64(24) {
		f.Add(seed, uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		at := sim.Time(rng.Intn(50))
		end := at + sim.Time(rng.Intn(200))
		window := int(end-at) + 1
		admit := []sim.Time{-1, at, at + sim.Time(rng.Intn(window)), end, end + 5, at - 3}[rng.Intn(6)]
		marks := []sim.Time{at, admit, end}
		point := func() sim.Time {
			if rng.Intn(3) == 0 {
				return marks[rng.Intn(len(marks))] + sim.Time(rng.Intn(3)-1)
			}
			return at - 20 + sim.Time(rng.Intn(window+40))
		}
		ivls := make([]reqInterval, k)
		for i := range ivls {
			start, stop := point(), point()
			switch rng.Intn(4) {
			case 0:
				stop = start // zero length
			case 1:
				start, stop = min(start, stop), max(start, stop)
			}
			ivls[i] = reqInterval{start: start, end: stop, class: rng.Intn(numClasses)}
		}
		got := RequestAttribution{ID: seed, At: at, Admit: admit, Start: at, End: end}
		want := got
		got.sweep(slices.Clone(ivls), nil)
		referenceSweep(&want, slices.Clone(ivls))
		if got != want {
			t.Fatalf("window [%d, %d] admit %d, intervals %v:\nsweep     %+v\nreference %+v", at, end, admit, ivls, got, want)
		}
		if got.Sum() != got.Sojourn() {
			t.Fatalf("components sum to %d, sojourn %d", got.Sum(), got.Sojourn())
		}
	})
}

// TestAttributeRequestsInPlace: Runtime.AttributeRequests returns
// TraceLog().RequestAttribution() and passes its check — on a traced run,
// read from the recorder's chunks before they are merged and after; on its
// untraced twin, made live as the run went, with ServeStats identical to the
// traced run's — on the contested serve kernel under every policy and steal
// policy, on a perturbed serve run whose log spans several chunks and on a
// horizon-cut run. A closed run has no request attribution.
func TestAttributeRequestsInPlace(t *testing.T) {
	type cell struct {
		name    string
		cfg     Config
		reqs    []Request
		horizon sim.Time
	}
	var cells []cell
	for _, pol := range allPolicies {
		for _, steal := range []string{"uniform", "hier", "hier-half"} {
			cells = append(cells, cell{pol.String() + "/" + steal + "/contested", digestConfig(t, pol, steal), serveTrace(8, 20*sim.Microsecond, 10), 0})
		}
	}
	perturbed := Config{Machine: topo.ITOA(), Workers: 8, Policy: ContGreedy, RemoteFree: remobj.LocalCollection, Seed: 42, MaxTime: 10 * sim.Second}
	perturbed.Machine.Perturb = &topo.Perturb{Seed: 7, LatencyJitter: 1.0, StragglerFrac: 0.6, StragglerFactor: 3}
	cells = append(cells, cell{"perturbed", perturbed, serveTrace(60, 2*sim.Microsecond, 11), 0})
	cells = append(cells, cell{"horizon-cut", testConfig(ContGreedy, 4), serveTrace(30, 2*sim.Microsecond, 10), 40 * sim.Microsecond})
	chunked := false
	for _, c := range cells {
		c.cfg.Trace = true
		rt := New(c.cfg)
		st := rt.Serve(c.reqs, c.horizon)
		if c.horizon > 0 && st.InFlight == 0 {
			t.Fatalf("%s: the horizon cut no request", c.name)
		}
		chunked = chunked || len(rt.rec.Segments()) > 1
		inPlace, err := rt.AttributeRequests()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr := rt.TraceLog()
		want := tr.RequestAttribution()
		if err := tr.CheckRequests(want); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		merged, err := rt.AttributeRequests()
		if err != nil {
			t.Fatalf("%s: after TraceLog: %v", c.name, err)
		}
		c.cfg.Trace = false
		twin := New(c.cfg)
		twinSt := twin.Serve(c.reqs, c.horizon)
		if !reflect.DeepEqual(twinSt, st) {
			t.Errorf("%s: untraced ServeStats differ from the traced run's:\nuntraced %+v\ntraced   %+v", c.name, twinSt, st)
		}
		live, err := twin.AttributeRequests()
		if err != nil {
			t.Fatalf("%s: untraced: %v", c.name, err)
		}
		if !slices.Equal(inPlace, want) || !slices.Equal(merged, want) || !slices.Equal(live, want) {
			t.Errorf("%s: AttributeRequests differs from TraceLog().RequestAttribution():\nin place %+v\nmerged   %+v\nlive     %+v\nwant     %+v", c.name, inPlace, merged, live, want)
		}
	}
	if !chunked {
		t.Error("no cell's log spans two recorder chunks: the in-place read of a chunk boundary went untested")
	}
	closed := New(testConfig(ContGreedy, 2))
	closed.Run(fibTask(5))
	if atts, err := closed.AttributeRequests(); err == nil || atts != nil {
		t.Errorf("closed run: AttributeRequests = %v, %v; want an error", atts, err)
	}
}

// TestRequestCloseRule: a request closes at the run span that follows its
// serve.done, ending at End. A log with an event tagged with a request after
// it closed, or with a second serve.done for one request, is refused with an
// error naming the request and the event kind — by Trace.AttributeRequests,
// VerifyRequests and Runtime.AttributeRequests alike — while the same log
// without the stray event attributes cleanly.
func TestRequestCloseRule(t *testing.T) {
	ev := func(t sim.Time, dur sim.Time, k obs.Kind, req int64) obs.Event {
		return obs.Event{T: t, Dur: dur, Kind: k, Task: 5, Peer: -1, Req: req}
	}
	request := func(req int64, at sim.Time) []obs.Event {
		return []obs.Event{
			ev(at, 0, obs.KindServeArrive, req), ev(at, 0, obs.KindServeAdmit, req), ev(at, 0, obs.KindServeStart, req),
			ev(at, 30, obs.KindCompute, req), ev(at+40, 0, obs.KindServeDone, req), ev(at, 40, obs.KindRun, req),
		}
	}
	serve := &ServeCheck{Admitted: 2, Injected: 2, Completed: 2, Done: []RequestDone{{ID: 2, At: 0, End: 40}, {ID: 6, At: 100, End: 140}}}
	clean := slices.Concat(request(3, 0), request(7, 100))
	if _, err := (&Trace{Serve: serve, Events: clean}).AttributeRequests(); err != nil {
		t.Fatalf("clean log: %v", err)
	}
	for _, c := range []struct {
		name   string
		events []obs.Event
		want   string
	}{
		{"late tagged event", slices.Concat(request(3, 0), []obs.Event{ev(50, 5, obs.KindRDMAGet, 3)}, request(7, 100)),
			"request 2: rdma.get event is outside the request's window (it has closed, or it never arrived)"},
		{"event before arrival", slices.Concat([]obs.Event{ev(0, 5, obs.KindCompute, 3)}, request(3, 0), request(7, 100)),
			"request 2: compute event is outside the request's window (it has closed, or it never arrived)"},
		{"duplicated serve.done", slices.Concat(request(3, 0)[:5], []obs.Event{ev(40, 0, obs.KindServeDone, 3)}, request(3, 0)[5:], request(7, 100)),
			"request 2: serve.done event is the request's second"},
		{"serve.done after close", slices.Concat(request(3, 0), request(7, 100), []obs.Event{ev(150, 0, obs.KindServeDone, 7)}),
			"request 6: serve.done event is outside the request's window (it has closed, or it never arrived)"},
	} {
		tr := &Trace{Serve: serve, Events: c.events}
		atts, err := tr.AttributeRequests()
		if err == nil || err.Error() != c.want || atts != nil {
			t.Errorf("%s: AttributeRequests = %v, %v; want the error %q", c.name, atts, err, c.want)
		}
		if err := tr.VerifyRequests(); err == nil || err.Error() != c.want {
			t.Errorf("%s: VerifyRequests = %v; want %q", c.name, err, c.want)
		}
		// The recorded log of a runtime is held to the same rule.
		rt := &Runtime{rec: obs.NewRecorder(), lastServe: &ServeStats{Admitted: 2, Completed: 2, Done: serve.Done}}
		for _, e := range c.events {
			rt.rec.Event(e)
		}
		if _, err := rt.AttributeRequests(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Runtime.AttributeRequests = %v; want %q", c.name, err, c.want)
		}
	}
}

// synthServeTrace is a hand-built serve trace of n requests, one after
// another. Each has `spans` compute, run and rdma spans of tasks that never
// suspend, and `suspended` tasks that each suspend once and run again later,
// and closes at its root's run span after its serve.done. The serve block
// lists the completions, as a recorded trace's does.
func synthServeTrace(n, spans, suspended int) *Trace {
	var evs []obs.Event
	ck := &ServeCheck{Admitted: uint64(n), Injected: uint64(n), Completed: uint64(n)}
	for r := range n {
		tag := int64(r + 1)
		base := sim.Time(r) * 1000
		ev := func(t, dur sim.Time, k obs.Kind, task int64) obs.Event {
			return obs.Event{T: base + t, Dur: dur, Kind: k, Task: task, Peer: -1, Req: tag}
		}
		evs = append(evs, ev(0, 0, obs.KindServeArrive, -1), ev(0, 0, obs.KindServeAdmit, -1), ev(1, 0, obs.KindServeStart, -1))
		for i := range spans {
			k := []obs.Kind{obs.KindCompute, obs.KindRun, obs.KindRDMAGet}[i%3]
			evs = append(evs, ev(sim.Time(2+i%700), 5, k, int64(1000+i)))
		}
		for i := range suspended {
			evs = append(evs, ev(sim.Time(10+i), 0, obs.KindSuspend, int64(i)), ev(sim.Time(400+i), 20, obs.KindRun, int64(i)))
		}
		evs = append(evs, ev(900, 0, obs.KindServeDone, -1), ev(800, 100, obs.KindRun, 999))
		ck.Done = append(ck.Done, RequestDone{ID: tag - 1, At: base, End: base + 900})
	}
	return &Trace{Serve: ck, Events: evs}
}

// TestRequestAttributionAllocBound: the attribution holds only the requests
// that are open, so one after another they reuse one request's buffers. 1,024
// requests of 600 intervals, with no suspended task and with 8 a request,
// allocate their output rows plus at most 256 KiB (one log of all their
// intervals would be ~14 MiB), and 600 intervals a request cost at most 8
// allocations a run more than 6 do, counted in all over 50 runs: room for the
// buffers to grow, not one allocation per request or per interval.
// Suspended tasks, whose join ends it looks up, add at least one a run.
func TestRequestAttributionAllocBound(t *testing.T) {
	for _, suspended := range []int{0, 8} {
		tr := synthServeTrace(1024, 600, suspended)
		if got := tr.RequestAttribution(); len(got) != 1024 || got[0].Sum() != got[0].Sojourn() {
			t.Fatalf("synthetic trace attributes to %d rows, the first %+v", len(got), got[0])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		atts := tr.RequestAttribution()
		runtime.ReadMemStats(&after)
		rows := uint64(cap(atts)) * uint64(unsafe.Sizeof(atts[0]))
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d suspended tasks a request: 1,024 requests of 600 intervals allocate %d B, %d B of them output rows", suspended, bytes, rows)
		if bytes > rows+256<<10 {
			t.Errorf("%d suspended tasks a request: 1,024 requests of 600 intervals allocate %d B, want at most %d B of output rows + 256 KiB", suspended, bytes, rows)
		}
	}
	const runs = 50
	mallocs := func(spans, suspended int) uint64 {
		tr := synthServeTrace(16, spans, suspended)
		if got := tr.RequestAttribution(); len(got) != 16 || got[0].Sum() != got[0].Sojourn() {
			t.Fatalf("synthetic trace attributes to %+v", got)
		}
		return allocs.Count(runs, func() { tr.RequestAttribution() })
	}
	for _, suspended := range []int{0, 8} {
		few, many := mallocs(6, suspended), mallocs(600, suspended)
		t.Logf("%d suspended tasks a request: %d allocations in %d runs at 6 intervals a request, %d at 600", suspended, few, runs, many)
		if many > few+8*runs {
			t.Errorf("%d suspended tasks a request: %d allocations in %d runs at 6 intervals a request, %d at 600; want at most %d more", suspended, few, runs, many, 8*runs)
		}
	}
	if none, some := mallocs(6, 0), mallocs(6, 64); some < none+runs {
		t.Errorf("%d allocations in %d runs with no suspended task, %d with 64 a request: the join lookup allocated less than once a run", none, runs, some)
	}
}
