package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

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
			switch string(e.Kind) {
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
