package core

import (
	"bytes"
	"fmt"
	"testing"

	"contsteal/internal/digest"
	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// policyDigest is what one cell pins: the complete event stream, the merged
// metrics registry, and the run's sim.EngineStats — how many events, proc
// wake-ups and callbacks it took, which no trace or metric shows — plus the
// engine's dispatch steps as checkpoints, so a mismatch names the first
// window of steps at which the run left the recorded schedule.
type policyDigest struct {
	Trace       string              `json:"trace_sha256"`
	Metrics     string              `json:"metrics_sha256"`
	Events      uint64              `json:"events"`
	Handoffs    uint64              `json:"handoffs"`
	Callbacks   uint64              `json:"callbacks"`
	Checkpoints []digest.Checkpoint `json:"checkpoints"`
}

// TestPolicyDigests pins what the TSV goldens do not see: the committed
// trace fixtures cover ContGreedy only, so the other policies' event streams
// are otherwise held through execution times alone. Every policy × {default,
// hier, hier-half} steal policy × digestKernels cell runs traced on 8
// workers over two nodes (hier is the steal-one cell whose metrics carry the
// batch counters); the digests were recorded before
// the scheduler loop and steal chain (fib, serve) and the task lifecycle
// (futures, yield) were folded into single paths, and the contested cells
// before a worker's occupant became one frame stack, and must only ever
// change together with the goldens.
func TestPolicyDigests(t *testing.T) {
	got := map[string]policyDigest{}
	for _, pol := range allPolicies {
		for _, steal := range []string{"uniform", "hier", "hier-half"} {
			for _, kernel := range digestKernels {
				cell := pol.String() + "/" + steal + "/" + kernel
				cfg := digestConfig(t, pol, steal)
				cfg.Trace, cfg.Metrics = true, true
				rt := New(cfg)
				var steps digest.Steps
				eng := rt.Engine()
				eng.SetTrace(func(line string) { steps.Step(int64(eng.Now()), line) })
				st := runKernel(t, rt, cell, kernel)
				var tr, mt bytes.Buffer
				if err := rt.TraceLog().WriteJSON(&tr); err != nil {
					t.Fatalf("trace: %v", err)
				}
				if err := st.Obs.WriteTSV(&mt); err != nil {
					t.Fatalf("metrics: %v", err)
				}
				if st.Work.StealsOK == 0 || st.Work.StealsFail == 0 {
					t.Errorf("%s: steals ok=%d fail=%d, want both paths exercised",
						cell, st.Work.StealsOK, st.Work.StealsFail)
				}
				got[cell] = policyDigest{
					Trace:       digest.SHA256(tr.Bytes()),
					Metrics:     digest.SHA256(mt.Bytes()),
					Events:      st.Engine.Events,
					Handoffs:    st.Engine.Handoffs,
					Callbacks:   st.Engine.Callbacks,
					Checkpoints: steps.Checkpoints(),
				}
			}
		}
	}
	digest.Check(t, "testdata/policy_digests.json", got)
}

// seriesDigest pins a run's Fig. 7 time series: how many samples it took,
// the sums of its two gauges and the SHA-256 of every sample.
type seriesDigest struct {
	Samples int    `json:"samples"`
	Busy    int    `json:"busy_sum"`
	Ready   int    `json:"ready_sum"`
	Series  string `json:"series_sha256"`
}

// TestSeriesDigests pins the busy-workers and ready-joins gauges, which no
// golden TSV sees at a useful resolution: every policy × the fib, serve,
// yield and futures kernels on TestPolicyDigests' machine, sampled each
// microsecond. The digests were recorded before a worker's occupant became
// one frame stack.
func TestSeriesDigests(t *testing.T) {
	got := map[string]seriesDigest{}
	for _, pol := range allPolicies {
		for _, kernel := range []string{"fib", "serve", "yield", "futures"} {
			cell := pol.String() + "/" + kernel
			cfg := digestConfig(t, pol, "uniform")
			cfg.Sample = sim.Microsecond
			st := runKernel(t, New(cfg), cell, kernel)
			var d seriesDigest
			var b bytes.Buffer
			for _, s := range st.Series {
				d.Samples++
				d.Busy += s.Busy
				d.Ready += s.Ready
				fmt.Fprintf(&b, "%d\t%d\t%d\n", s.T, s.Busy, s.Ready)
			}
			d.Series = digest.SHA256(b.Bytes())
			if d.Busy == 0 {
				t.Errorf("%s: %d samples, none busy", cell, d.Samples)
			}
			got[cell] = d
		}
	}
	digest.Check(t, "testdata/series_digests.json", got)
}

// digestKernels are the workloads of TestPolicyDigests' cells.
var digestKernels = []string{"fib", "serve", "futures", "yield", "contested"}

// digestConfig is the machine every digest cell runs on: 8 workers over two
// nodes of the ITO-A model, with the lock-queue remote free so the idle
// tail's collect step runs too, under the named steal policy.
func digestConfig(t *testing.T, pol Policy, steal string) Config {
	t.Helper()
	sp, err := ParseStealPolicy(steal)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(pol, 8)
	cfg.Machine = topo.ITOA()
	cfg.Machine.CoresPerNode = 4
	cfg.RemoteFree = remobj.LockQueue
	cfg.Steal = sp
	return cfg
}

// runKernel runs the named digest kernel on rt, checks its result, and
// returns the run's stats:
//   - fib: closed fib(14);
//   - serve: 24 fib(7) requests at widening gaps — the first arrivals
//     overlap (steals), the last find a drained system (doorbell dozing,
//     backoff);
//   - futures: the multi-consumer stencil;
//   - yield: the yielding spawners;
//   - contested: 8 fib(10) requests 20 µs apart, whose request DAGs overlap
//     enough for stolen continuations to reach joins their children have
//     not finished, where greedy and stalling joins part.
func runKernel(t *testing.T, rt *Runtime, cell, kernel string) RunStats {
	t.Helper()
	pol := rt.Config().Policy
	var ret []byte
	var st RunStats
	switch kernel {
	case "fib":
		ret, st = rt.Run(fibTask(14))
		if got, want := RetInt64(ret), fibSerial(14); got != want {
			t.Errorf("%s: result %d, want %d", cell, got, want)
		}
	case "serve":
		reqs := serveTrace(24, 0, 7)
		for i := range reqs {
			reqs[i].At = sim.Time(i*i) * 500 * sim.Nanosecond
		}
		st = rt.Serve(reqs, 0).RunStats
	case "futures":
		ret, st = rt.Run(stencilTask(5, 9))
		if got, want := RetInt64(ret), stencilSerial(5, 9); got != want {
			t.Errorf("%s: result %d, want %d", cell, got, want)
		}
		if pol == ContGreedy && st.Work.JoinSlowPath == 0 {
			t.Errorf("%s: no slow-path join", cell)
		}
	case "yield":
		ret, st = rt.Run(yieldTask(6, 4))
		if got, want := RetInt64(ret), 6*4*fibSerial(5); got != want {
			t.Errorf("%s: result %d, want %d", cell, got, want)
		}
	case "contested":
		st = rt.Serve(serveTrace(8, 20*sim.Microsecond, 10), 0).RunStats
		if pol == ContGreedy && st.Work.JoinSlowPath == 0 {
			t.Errorf("%s: no slow-path join", cell)
		}
	default:
		t.Fatalf("unknown kernel %q", kernel)
	}
	return st
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
