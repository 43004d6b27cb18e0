package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/policy_digests.json")

const policyDigestFile = "testdata/policy_digests.json"

// policyDigest is what one cell pins: the complete event stream, the merged
// metrics registry, the engine's cross-shard counter, and the run's
// sim.EngineStats — how many events, proc wake-ups and callbacks it took,
// which no trace or metric shows.
type policyDigest struct {
	Trace      string `json:"trace_sha256"`
	Metrics    string `json:"metrics_sha256"`
	CrossShard uint64 `json:"cross_shard"`
	Events     uint64 `json:"events"`
	Handoffs   uint64 `json:"handoffs"`
	Callbacks  uint64 `json:"callbacks"`
}

// TestPolicyDigests pins what the TSV goldens do not see: the committed
// trace fixtures cover ContGreedy only, so the other policies' event streams
// are otherwise held through execution times alone. Every policy × {default,
// hier, hier-half} steal policy × {closed fib, open 24-request serve} cell
// runs traced on 8 workers over two nodes and two engine shards (hier is the
// steal-one cell whose metrics carry the batch counters); the digests were
// recorded before the scheduler loop and steal chain were folded into single
// paths and must only ever change together with the goldens.
func TestPolicyDigests(t *testing.T) {
	got := map[string]policyDigest{}
	for _, pol := range allPolicies {
		for _, steal := range []string{"uniform", "hier", "hier-half"} {
			for _, kernel := range []string{"fib", "serve"} {
				sp, err := ParseStealPolicy(steal)
				if err != nil {
					t.Fatal(err)
				}
				mach := topo.ITOA()
				mach.CoresPerNode = 4
				cfg := testConfig(pol, 8)
				cfg.Machine = mach
				cfg.RemoteFree = remobj.LockQueue // the idle tail's collect step runs too
				cfg.Steal = sp
				cfg.Shards = 2
				cfg.Trace = true
				cfg.Metrics = true
				rt := New(cfg)
				var st RunStats
				if kernel == "fib" {
					_, st = rt.Run(fibTask(14))
				} else {
					// Widening gaps: the first arrivals overlap (steals), the
					// last find a drained system (doorbell dozing, backoff).
					reqs := serveTrace(24, 0, 7)
					for i := range reqs {
						reqs[i].At = sim.Time(i*i) * 500 * sim.Nanosecond
					}
					st = rt.Serve(reqs, 0).RunStats
				}
				var tr, mt bytes.Buffer
				if err := rt.TraceLog().WriteJSON(&tr); err != nil {
					t.Fatalf("trace: %v", err)
				}
				if err := st.Obs.WriteTSV(&mt); err != nil {
					t.Fatalf("metrics: %v", err)
				}
				if st.Work.StealsOK == 0 || st.Work.StealsFail == 0 {
					t.Errorf("%v/%s/%s: steals ok=%d fail=%d, want both paths exercised",
						pol, steal, kernel, st.Work.StealsOK, st.Work.StealsFail)
				}
				trSum, mtSum := sha256.Sum256(tr.Bytes()), sha256.Sum256(mt.Bytes())
				got[pol.String()+"/"+steal+"/"+kernel] = policyDigest{
					Trace:      hex.EncodeToString(trSum[:]),
					Metrics:    hex.EncodeToString(mtSum[:]),
					CrossShard: st.CrossShard,
					Events:     st.Engine.Events,
					Handoffs:   st.Engine.Handoffs,
					Callbacks:  st.Engine.Callbacks,
				}
			}
		}
	}
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(policyDigestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(policyDigestFile)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/core -run TestPolicyDigests -update)", err)
	}
	want := map[string]policyDigest{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", policyDigestFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the test runs %d", policyDigestFile, len(want), len(got))
	}
	for cell, g := range got {
		if w := want[cell]; g != w {
			t.Errorf("%s: got %+v, recorded %+v", cell, g, w)
		}
	}
}
