package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"contsteal/internal/obs"
	"contsteal/internal/sim"
)

func TestTraceRecordsSpans(t *testing.T) {
	for _, pol := range allPolicies {
		cfg := testConfig(pol, 3)
		cfg.Trace = true
		rt := New(cfg)
		_, st := rt.Run(fibTask(11))
		tr := rt.TraceLog()
		if tr == nil {
			t.Fatalf("%v: no trace recorded", pol)
		}
		runs, steals := 0, 0
		for _, e := range tr.Events {
			switch e.Kind {
			case obs.KindRun:
				runs++
				if e.Dur < 0 || e.T < 0 || e.T+e.Dur > st.ExecTime {
					t.Fatalf("%v: run span out of bounds: %+v (exec %v)", pol, e, st.ExecTime)
				}
			case obs.KindSteal:
				steals++
				if e.Peer < 0 || e.Peer >= 3 || e.Peer == e.Rank {
					t.Fatalf("%v: steal with bad peer: %+v", pol, e)
				}
			}
		}
		if runs == 0 {
			t.Errorf("%v: no run spans", pol)
		}
		if uint64(steals) != st.Work.StealsOK {
			t.Errorf("%v: %d steal events, stats say %d", pol, steals, st.Work.StealsOK)
		}
	}
}

func TestTraceSpansDoNotOverlapPerRank(t *testing.T) {
	cfg := testConfig(ContGreedy, 4)
	cfg.Trace = true
	rt := New(cfg)
	_, _ = rt.Run(fibTask(12))
	tr := rt.TraceLog()
	type span struct{ s, e int64 }
	perRank := make([][]span, 4)
	for _, e := range tr.Events {
		if e.Kind == obs.KindRun {
			perRank[e.Rank] = append(perRank[e.Rank], span{int64(e.T), int64(e.T + e.Dur)})
		}
	}
	for rank, spans := range perRank {
		for i := 1; i < len(spans); i++ {
			if spans[i].s < spans[i-1].e {
				t.Fatalf("rank %d: overlapping run spans [%d,%d) and [%d,%d)",
					rank, spans[i-1].s, spans[i-1].e, spans[i].s, spans[i].e)
			}
		}
	}
}

func TestTraceBusyTimeMatchesStats(t *testing.T) {
	// Compute spans are recorded at the exact site that accumulates
	// WorkerStats.BusyTime, so the per-rank integrals must reproduce the
	// stats total to the tick.
	for _, pol := range allPolicies {
		cfg := testConfig(pol, 3)
		cfg.Trace = true
		rt := New(cfg)
		_, st := rt.Run(fibTask(11))
		tr := rt.TraceLog()
		var total sim.Time
		for _, a := range tr.Attribution() {
			total += a.Busy
		}
		if total != st.Work.BusyTime {
			t.Errorf("%v: trace busy %d != stats busy %d", pol, total, int64(st.Work.BusyTime))
		}
	}
}

func TestTraceVerifyAllPolicies(t *testing.T) {
	// The full cross-check: every counter-mirroring span family must sum to
	// its RunStats counterpart exactly, for every scheduling policy.
	for _, pol := range allPolicies {
		cfg := testConfig(pol, 4)
		cfg.Trace = true
		rt := New(cfg)
		_, _ = rt.Run(fibTask(12))
		if err := rt.TraceLog().Verify(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

func TestMetricsRegistry(t *testing.T) {
	cfg := testConfig(ContGreedy, 4)
	cfg.Metrics = true
	rt := New(cfg)
	_, st := rt.Run(fibTask(12))
	if st.Obs == nil {
		t.Fatal("Config.Metrics set but RunStats.Obs is nil")
	}
	sl, ok := st.Obs.Lookup("steal.latency")
	if !ok {
		t.Fatal("steal.latency histogram missing")
	}
	if sl.N != st.Work.StealsOK {
		t.Errorf("steal.latency N=%d, stats StealsOK=%d", sl.N, st.Work.StealsOK)
	}
	if sl.Sum != st.Work.StealLatency {
		t.Errorf("steal.latency Sum=%d, stats StealLatency=%d", int64(sl.Sum), int64(st.Work.StealLatency))
	}
	oj, ok := st.Obs.Lookup("oj.wait")
	if !ok {
		t.Fatal("oj.wait histogram missing")
	}
	if oj.N != st.Join.Resumed || oj.Sum != st.Join.OutstandingTime {
		t.Errorf("oj.wait N=%d Sum=%d, stats Resumed=%d OutstandingTime=%d",
			oj.N, int64(oj.Sum), st.Join.Resumed, int64(st.Join.OutstandingTime))
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	rt := New(testConfig(ContGreedy, 2))
	_, st := rt.Run(fibTask(8))
	if st.Obs != nil {
		t.Error("RunStats.Obs non-nil without Config.Metrics")
	}
}

func TestTraceSuspendResumePairs(t *testing.T) {
	// The forced-steal scenario suspends a join and resumes it: both events
	// must appear in the trace.
	cfg := testConfig(ContGreedy, 2)
	cfg.Trace = true
	rt := New(cfg)
	_, _ = rt.Run(func(c *Ctx) []byte {
		h := c.Spawn(func(c *Ctx) []byte {
			c.Compute(200 * 1000)
			return Int64Ret(5)
		})
		c.Compute(50 * 1000)
		return Int64Ret(h.JoinInt64(c))
	})
	tr := rt.TraceLog()
	suspends, resumes, migrates := 0, 0, 0
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindSuspend:
			suspends++
		case obs.KindResume:
			resumes++
		case obs.KindMigrate:
			migrates++
		}
	}
	if suspends == 0 || resumes == 0 {
		t.Errorf("suspend/resume not traced: %d/%d", suspends, resumes)
	}
	if migrates == 0 {
		t.Error("no migration traced despite a forced steal")
	}
}

func TestTraceJSONAndChromeExport(t *testing.T) {
	cfg := testConfig(ContGreedy, 2)
	cfg.Trace = true
	rt := New(cfg)
	_, _ = rt.Run(fibTask(8))
	tr := rt.TraceLog()

	var raw bytes.Buffer
	if err := tr.WriteJSON(&raw); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Trace
	if err := json.Unmarshal(raw.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Errorf("JSON round trip lost events: %d vs %d", len(back.Events), len(tr.Events))
	}

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("chrome trace empty")
	}
	// Every rank must get labelled rows: a process_name for its node and a
	// thread_name per track (the fix for the previously unlabeled timelines).
	names := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "M" {
			if args, ok := e["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		}
	}
	for _, want := range []string{"node 0", "rank 0", "rank 1", "rank 0 protocol", "rank 1 rdma"} {
		if !names[want] {
			t.Errorf("chrome trace missing %q metadata", want)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	rt := New(testConfig(ContGreedy, 2))
	_, _ = rt.Run(fibTask(8))
	if rt.TraceLog() != nil {
		t.Error("trace recorded without Config.Trace")
	}
}

// TestReadTraceJSONRejectsWhatNoRunWrote: a recorded trace reads back, and
// the three files `repro analyze` used to accept or misname — a negative
// event time, a negative exec_time, a Chrome export — fail with one line
// naming the field (and the event index).
func TestReadTraceJSONRejectsWhatNoRunWrote(t *testing.T) {
	cfg := testConfig(ContGreedy, 2)
	cfg.Trace = true
	rt := New(cfg)
	_, _ = rt.Run(fibTask(8))
	tr := rt.TraceLog()
	var raw, chrome bytes.Buffer
	if err := tr.WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	good := raw.String()
	t3 := fmt.Sprintf(`"t":%d,`, int64(tr.Events[3].T))
	exec := fmt.Sprintf(`"exec_time":%d,`, int64(tr.ExecTime))
	for _, tc := range []struct {
		name, file, want string
	}{
		{"recorded", good, ""},
		{"negative t", strings.Replace(good, t3, `"t":-5,`, 1), "]: t must be non-negative, got -5"},
		{"negative exec_time", strings.Replace(good, exec, `"exec_time":-`+exec[len(`"exec_time":`):], 1),
			fmt.Sprintf("exec_time must be non-negative, got -%d", int64(tr.ExecTime))},
		{"chrome export", chrome.String(), "a Chrome export (top-level traceEvents); analyze reads -trace json"},
		{"unknown kind", strings.Replace(good, `"kind":"compute"`, `"kind":"compute.x"`, 1), `unknown event kind "compute.x"`},
	} {
		if tc.file == good && tc.want != "" {
			t.Fatalf("%s: the edit did not apply", tc.name)
		}
		_, err := ReadTraceJSON(strings.NewReader(tc.file))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("%s: error %v, want one line containing %q", tc.name, err, tc.want)
		}
	}
}
