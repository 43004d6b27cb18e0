package core

import (
	"testing"

	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// TestCollectFiresOncePerMultiple is the regression test for the repeated
// lock-queue drain bug: while StealsFail sits at a multiple of collectEvery
// (the worker cycles through idle passes without a new failed steal — wait-
// queue resumes, lone-worker loops), the periodic drain must fire exactly
// once, not on every pass.
func (w *Worker) collectCount(fails uint64, passes int) int {
	w.st.StealsFail = fails
	n := 0
	for i := 0; i < passes; i++ {
		if w.shouldCollect() {
			n++
		}
	}
	return n
}

func TestCollectFiresOncePerMultiple(t *testing.T) {
	cfg := testConfig(ContGreedy, 2)
	cfg.RemoteFree = remobj.LockQueue
	rt := New(cfg)
	w := rt.workers[0]

	if got := w.collectCount(0, 10); got != 0 {
		t.Errorf("drain fired %d times at StealsFail=0, want 0", got)
	}
	if got := w.collectCount(collectEvery, 10); got != 1 {
		t.Errorf("drain fired %d times over 10 idle passes at StealsFail=%d, want exactly 1", got, collectEvery)
	}
	if got := w.collectCount(collectEvery+1, 10); got != 0 {
		t.Errorf("drain fired %d times at a non-multiple, want 0", got)
	}
	if got := w.collectCount(2*collectEvery, 10); got != 1 {
		t.Errorf("drain did not re-arm at the next multiple (fired %d times, want 1)", got)
	}
	// Non-LockQueue runtimes never drain.
	rt2 := New(testConfig(ContGreedy, 2))
	if got := rt2.workers[0].collectCount(collectEvery, 10); got != 0 {
		t.Errorf("local-collection runtime fired the lock-queue drain %d times", got)
	}
}

// TestLockQueueDrainCountBounded runs a real LockQueue workload and checks
// the end-to-end form of the same property: total drains can never exceed
// the number of collectEvery multiples the failed-steal counters passed
// (one potential drain per worker per multiple).
func TestLockQueueDrainCountBounded(t *testing.T) {
	cfg := testConfig(ContGreedy, 4)
	cfg.RemoteFree = remobj.LockQueue
	rt := New(cfg)
	_, rs := rt.Run(fibTask(14))
	bound := rs.Work.StealsFail/collectEvery + uint64(cfg.Workers)
	if rs.Mem.Drains > bound {
		t.Errorf("%d lock-queue drains for %d failed steals (bound %d): drain re-fires without counter advance",
			rs.Mem.Drains, rs.Work.StealsFail, bound)
	}
}

// TestPerturbationsOffIsByteIdenticalTiming: a Machine carrying an inactive
// Perturb (plumbed, zero magnitudes) must reproduce the exact virtual-time
// result of a run with no Perturb at all, for every policy.
func TestPerturbationsOffIsByteIdenticalTiming(t *testing.T) {
	for _, pol := range allPolicies {
		base := New(testConfig(pol, 4))
		_, rs0 := base.Run(fibTask(13))

		cfg := testConfig(pol, 4)
		cfg.Machine.Perturb = &topo.Perturb{Seed: 123} // inactive: all magnitudes zero
		pert := New(cfg)
		if pert.stealBackoff {
			t.Fatalf("%v: inactive perturbation auto-enabled steal backoff", pol)
		}
		_, rs1 := pert.Run(fibTask(13))
		if rs0.ExecTime != rs1.ExecTime || rs0.Work != rs1.Work || rs0.Fabric != rs1.Fabric {
			t.Errorf("%v: inactive Perturb changed the run: exec %v vs %v", pol, rs0.ExecTime, rs1.ExecTime)
		}
	}
}

// TestPerturbedRunVerifiesAndSlowsDown: with jitter and stragglers on, the
// run still completes with correct results, accumulates PerturbTime, gets
// slower than the unperturbed run, auto-enables steal backoff, stays
// deterministic for a fixed seed — and its trace still passes Verify (the
// satellite-4 requirement).
func TestPerturbedRunVerifiesAndSlowsDown(t *testing.T) {
	mkcfg := func() Config {
		cfg := Config{
			Machine:    topo.ITOA(),
			Workers:    8,
			Policy:     ContGreedy,
			RemoteFree: remobj.LocalCollection,
			Seed:       42,
			MaxTime:    10 * sim.Second,
			Trace:      true,
		}
		cfg.Machine.Perturb = &topo.Perturb{
			Seed:          7,
			LatencyJitter: 1.0,
			StragglerFrac: 0.6, StragglerFactor: 3,
		}
		return cfg
	}
	run := func(cfg Config) (int64, RunStats, *Trace) {
		rt := New(cfg)
		if !rt.stealBackoff {
			t.Fatal("active perturbation did not auto-enable steal backoff")
		}
		ret, rs := rt.Run(fibTask(13))
		var v int64
		for i := 7; i >= 0; i-- {
			v = v<<8 | int64(ret[i])
		}
		return v, rs, rt.TraceLog()
	}

	v, rs, tr := run(mkcfg())
	if want := fibSerial(13); v != want {
		t.Fatalf("perturbed fib(13) = %d, want %d", v, want)
	}
	if rs.Fabric.PerturbTime <= 0 {
		t.Error("no PerturbTime accumulated under full jitter")
	}
	if err := tr.Verify(); err != nil {
		t.Errorf("Trace.Verify with perturbations on: %v", err)
	}
	if tr.Check.PerturbTime != rs.Fabric.PerturbTime {
		t.Errorf("trace Check.PerturbTime %v != stats %v", tr.Check.PerturbTime, rs.Fabric.PerturbTime)
	}

	v2, rs2, _ := run(mkcfg())
	if v2 != v || rs2.ExecTime != rs.ExecTime || rs2.Work != rs.Work || rs2.Fabric != rs.Fabric {
		t.Errorf("same perturbation seed, different run: exec %v vs %v", rs2.ExecTime, rs.ExecTime)
	}

	base := mkcfg()
	base.Machine.Perturb = nil
	base.Trace = false
	rt := New(base)
	_, rs0 := rt.Run(fibTask(13))
	if rs.ExecTime <= rs0.ExecTime {
		t.Errorf("perturbed run (%v) not slower than unperturbed (%v)", rs.ExecTime, rs0.ExecTime)
	}
}

// TestIdleDelayBackoffBoundedAndGated pins the backoff policy: fixed
// idleBackoff when disabled, exponential growth after stealBackoffAfter
// consecutive failures when enabled, capped, and reset by success.
func TestIdleDelayBackoffBoundedAndGated(t *testing.T) {
	rt := New(testConfig(ContGreedy, 2))
	w := rt.workers[0]
	w.failStreak = 1000
	if d := w.idleDelay(); d != idleBackoff {
		t.Errorf("backoff disabled but idleDelay = %v", d)
	}
	rt = New(testConfig(ContGreedy, 2))
	rt.stealBackoff = true
	w = rt.workers[0]
	prev := sim.Time(0)
	for streak := 0; streak <= stealBackoffAfter; streak++ {
		w.failStreak = streak
		if d := w.idleDelay(); d != idleBackoff {
			t.Errorf("streak %d: idleDelay = %v, want base %v", streak, d, idleBackoff)
		}
	}
	for streak := stealBackoffAfter + 1; streak < stealBackoffAfter+stealBackoffShiftMax+4; streak++ {
		w.failStreak = streak
		d := w.idleDelay()
		if d < prev {
			t.Errorf("streak %d: idleDelay %v decreased", streak, d)
		}
		if max := idleBackoff << stealBackoffShiftMax; d > max {
			t.Errorf("streak %d: idleDelay %v above cap %v", streak, d, max)
		}
		prev = d
	}
	if prev != idleBackoff<<stealBackoffShiftMax {
		t.Errorf("backoff never reached its cap (last %v)", prev)
	}
	w.failStreak = 50
	w.stealSucceeded(0, 1, 0, 0, 0)
	if w.failStreak != 0 {
		t.Error("successful steal did not reset the fail streak")
	}
}

// TestSharedMachineRunsAreIndependent: the perturbation streams a run draws
// from belong to the run, not to the Machine the caller passed in, so the
// second run on one perturbed Machine equals a run on a fresh one.
func TestSharedMachineRunsAreIndependent(t *testing.T) {
	jittered := func() *topo.Machine {
		m := topo.ITOA()
		m.Perturb = &topo.Perturb{Seed: 3, LatencyJitter: 0.5}
		return m
	}
	run := func(m *topo.Machine) RunStats {
		cfg := testConfig(ContGreedy, 8)
		cfg.Machine = m
		_, rs := New(cfg).Run(fibTask(12))
		return rs
	}
	want := run(jittered())
	shared := jittered()
	for i := 1; i <= 2; i++ {
		if got := run(shared); got.ExecTime != want.ExecTime || got.Fabric != want.Fabric {
			t.Errorf("run %d on a shared Machine: exec %v, perturb time %v; fresh Machine: %v, %v",
				i, got.ExecTime, got.Fabric.PerturbTime, want.ExecTime, want.Fabric.PerturbTime)
		}
	}
}
