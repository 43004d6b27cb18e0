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
// hier, hier-half} steal policy × {closed fib, open 24-request serve,
// multi-consumer futures stencil, yielding spawners} cell runs traced on 8
// workers over two nodes and two engine shards (hier is the steal-one cell
// whose metrics carry the batch counters); the digests were recorded before
// the scheduler loop and steal chain (fib, serve) and the task lifecycle
// (futures, yield) were folded into single paths and must only ever change
// together with the goldens.
func TestPolicyDigests(t *testing.T) {
	got := map[string]policyDigest{}
	for _, pol := range allPolicies {
		for _, steal := range []string{"uniform", "hier", "hier-half"} {
			for _, kernel := range []string{"fib", "serve", "futures", "yield"} {
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
				switch kernel {
				case "fib":
					_, st = rt.Run(fibTask(14))
				case "futures":
					var ret []byte
					ret, st = rt.Run(stencilTask(5, 9))
					if got, want := RetInt64(ret), stencilSerial(5, 9); got != want {
						t.Errorf("%v/%s/futures: result %d, want %d", pol, steal, got, want)
					}
					if pol == ContGreedy && st.Work.JoinSlowPath == 0 {
						t.Errorf("%v/%s/futures: no slow-path join", pol, steal)
					}
				case "yield":
					var ret []byte
					ret, st = rt.Run(yieldTask(6, 4))
					if got, want := RetInt64(ret), 6*4*fibSerial(5); got != want {
						t.Errorf("%v/%s/yield: result %d, want %d", pol, steal, got, want)
					}
				default:
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

// stencilTask is the multi-consumer futures kernel: steps+1 rows of n cells,
// cell (t, i) joining the clamped cells (t-1, i-1..i+1) from its own task, so
// a future has 2 consumers at the edges, 3 inside and 1 (the root) in the
// last row. Compute times from 1 to 41 µs let stolen continuations run ahead
// of their producers: at 5 × 9 the ContGreedy cells suspend in claimed slots,
// lose slot races, die with one to three waiters (resume descriptors pushed),
// hand off to an unstolen parent, and find a non-parent on top of the deque.
func stencilTask(n, steps int) TaskFunc {
	return func(c *Ctx) []byte {
		var prev []Handle
		for t := 0; t <= steps; t++ {
			row := make([]Handle, n)
			for i := range row {
				consumers := 1
				if t < steps {
					consumers = min(i+1, n-1) - max(i-1, 0) + 1
				}
				var deps []Handle
				if t > 0 {
					deps = prev[max(i-1, 0) : min(i+1, n-1)+1]
				}
				val := int64(t*n + i)
				row[i] = c.SpawnFuture(consumers, func(c *Ctx) []byte {
					for _, d := range deps {
						val += d.JoinInt64(c)
					}
					c.Compute(sim.Time(1+(val%5)*(val%2)*10) * sim.Microsecond)
					return Int64Ret(val)
				})
			}
			prev = row
		}
		var sum int64
		for _, h := range prev {
			sum += h.JoinInt64(c)
		}
		return Int64Ret(sum)
	}
}

func stencilSerial(n, steps int) int64 {
	prev := make([]int64, n)
	for t := 0; t <= steps; t++ {
		row := make([]int64, n)
		for i := range row {
			row[i] = int64(t*n + i)
			for j := max(i-1, 0); t > 0 && j <= min(i+1, n-1); j++ {
				row[i] += prev[j]
			}
		}
		prev = row
	}
	var sum int64
	for _, v := range prev {
		sum += v
	}
	return sum
}

// yieldTask is the yield kernel: width tasks that each spawn, yield, compute
// and join rounds times, so yielded continuations sit at the steal end of the
// deque beside ordinary ones.
func yieldTask(width, rounds int) TaskFunc {
	return func(c *Ctx) []byte {
		hs := make([]Handle, width)
		for i := range hs {
			hs[i] = c.Spawn(func(c *Ctx) []byte {
				var sum int64
				for r := 0; r < rounds; r++ {
					h := c.Spawn(fibTask(5))
					c.Yield()
					c.Compute(2 * sim.Microsecond)
					sum += h.JoinInt64(c)
				}
				return Int64Ret(sum)
			})
		}
		var sum int64
		for _, h := range hs {
			sum += h.JoinInt64(c)
		}
		return Int64Ret(sum)
	}
}
