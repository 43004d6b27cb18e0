package core

import (
	"testing"
	"testing/quick"

	"contsteal/internal/remobj"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

var allPolicies = []Policy{ContGreedy, ContStalling, ChildFull, ChildRtC}

func testConfig(policy Policy, workers int) Config {
	return Config{
		Machine:    topo.Uniform(500), // 0.5us remote ops, free local ops
		Workers:    workers,
		Policy:     policy,
		RemoteFree: remobj.LocalCollection,
		Seed:       42,
		MaxTime:    10 * sim.Second,
	}
}

// fibTask computes fib(n) with one spawn per level plus serial recursion,
// the canonical fork-join microkernel.
func fibTask(n int) TaskFunc {
	return func(c *Ctx) []byte {
		return Int64Ret(fibValue(c, n))
	}
}

func fibValue(c *Ctx, n int) int64 {
	if n < 2 {
		c.Compute(200) // leaf work so steals have something to chew on
		return int64(n)
	}
	h := c.Spawn(fibTask(n - 1))
	y := fibValue(c, n-2)
	x := h.JoinInt64(c)
	return x + y
}

func fibSerial(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

func TestFibAllPolicies(t *testing.T) {
	want := fibSerial(12)
	for _, pol := range allPolicies {
		for _, workers := range []int{1, 2, 7} {
			rt := New(testConfig(pol, workers))
			ret, st := rt.Run(fibTask(12))
			got := int64(uint64(ret[0]) | uint64(ret[1])<<8 | uint64(ret[2])<<16 | uint64(ret[3])<<24 |
				uint64(ret[4])<<32 | uint64(ret[5])<<40 | uint64(ret[6])<<48 | uint64(ret[7])<<56)
			if got != want {
				t.Errorf("%v/%dw: fib(12) = %d, want %d", pol, workers, got, want)
			}
			if st.ExecTime <= 0 {
				t.Errorf("%v/%dw: non-positive exec time", pol, workers)
			}
			if workers > 1 && st.Work.StealsOK == 0 {
				t.Errorf("%v/%dw: no successful steals in an unbalanced computation", pol, workers)
			}
		}
	}
}

func TestSpawnJoinReturnsValue(t *testing.T) {
	for _, pol := range allPolicies {
		rt := New(testConfig(pol, 2))
		ret, _ := rt.Run(func(c *Ctx) []byte {
			h := c.Spawn(func(c *Ctx) []byte {
				c.Compute(1000)
				return Int64Ret(777)
			})
			v := h.JoinInt64(c)
			return Int64Ret(v + 1)
		})
		if got := int64(ret[0]) | int64(ret[1])<<8; got != 778 {
			t.Errorf("%v: got %d, want 778", pol, got)
		}
	}
}

func TestSerialElisionNoSteals(t *testing.T) {
	// With one worker, continuation stealing preserves the serial order and
	// never steals, suspends, or migrates.
	rt := New(testConfig(ContGreedy, 1))
	_, st := rt.Run(fibTask(10))
	if st.Work.StealsOK != 0 || st.Work.StealsFail != 0 {
		t.Errorf("steals on a single worker: %+v", st.Work)
	}
	if st.Join.Outstanding != 0 {
		t.Errorf("outstanding joins on a single worker: %d", st.Join.Outstanding)
	}
	if st.Stack.MigrationsIn != 0 {
		t.Errorf("migrations on a single worker: %d", st.Stack.MigrationsIn)
	}
	if st.Work.JoinFastPath == 0 {
		t.Error("greedy die fast path never taken in serial execution")
	}
	if st.Work.JoinSlowPath != 0 {
		t.Errorf("greedy die slow path taken %d times in serial execution", st.Work.JoinSlowPath)
	}
}

// forcedStealScenario builds a two-worker run where worker 1 must steal the
// root's continuation while the child computes.
func forcedStealScenario(t *testing.T, pol Policy) RunStats {
	t.Helper()
	rt := New(testConfig(pol, 2))
	ret, st := rt.Run(func(c *Ctx) []byte {
		h := c.Spawn(func(c *Ctx) []byte {
			c.Compute(200 * 1000) // long child
			return Int64Ret(5)
		})
		c.Compute(50 * 1000) // continuation work, ends before the child
		v := h.JoinInt64(c)
		return Int64Ret(v * 2)
	})
	if got := int64(ret[0]); got != 10 {
		t.Fatalf("%v: got %d, want 10", pol, got)
	}
	return st
}

func TestGreedyJoinMigratesAtJoin(t *testing.T) {
	st := forcedStealScenario(t, ContGreedy)
	if st.Work.StealsOK == 0 {
		t.Fatal("no steal occurred")
	}
	// The continuation reaches the join before the child finishes, suspends
	// (outstanding join), and must be resumed by the child's worker via the
	// greedy slow path — a migration at a join.
	if st.Join.Outstanding == 0 {
		t.Error("no outstanding join recorded")
	}
	if st.Work.JoinSlowPath == 0 {
		t.Error("greedy slow path never taken despite a stolen parent")
	}
	if st.Join.Resumed == 0 {
		t.Error("outstanding join never resumed")
	}
	// Greedy join resumes it almost immediately: outstanding time is on the
	// order of the protocol latency, far below the child compute time.
	if avg := st.AvgOutstandingJoinTime(); avg > 50*sim.Microsecond {
		t.Errorf("greedy outstanding join time = %v, want protocol-scale", avg)
	}
}

func TestStallingJoinDoesNotMigrate(t *testing.T) {
	st := forcedStealScenario(t, ContStalling)
	if st.Work.StealsOK == 0 {
		t.Fatal("no steal occurred")
	}
	if st.Join.Outstanding == 0 {
		t.Error("no outstanding join recorded")
	}
	// The suspended joiner sits in the thief's wait queue and is resumed
	// only round-robin after failed steals — never migrated at the join.
	if st.Work.WaitQResumes == 0 {
		t.Error("stalling join never used the wait queue")
	}
}

func TestContStealCopiesStack(t *testing.T) {
	st := forcedStealScenario(t, ContGreedy)
	if st.Work.StolenBytes == 0 {
		t.Fatal("continuation steal moved no stack bytes")
	}
	if avg := st.AvgStolenBytes(); avg < 1000 {
		t.Errorf("avg stolen size = %.0f bytes, want ~stackBytes (1600)", avg)
	}
	if st.Stack.MigrationsIn == 0 {
		t.Error("no stack migrations recorded")
	}
}

func TestChildStealMovesOnlyDescriptor(t *testing.T) {
	st := forcedStealScenario(t, ChildFull)
	if st.Work.StealsOK == 0 {
		t.Fatal("no steal occurred")
	}
	if avg := st.AvgStolenBytes(); avg != 56 {
		t.Errorf("avg stolen size = %.0f bytes, want 56 (descriptor only)", avg)
	}
	if st.Stack.MigrationsIn != 0 {
		t.Error("child stealing migrated a stack")
	}
}

func TestMultiConsumerFuture(t *testing.T) {
	for _, pol := range allPolicies {
		rt := New(testConfig(pol, 4))
		const consumers = 3
		ret, _ := rt.Run(func(c *Ctx) []byte {
			f := c.SpawnFuture(consumers, func(c *Ctx) []byte {
				c.Compute(20 * 1000)
				return Int64Ret(11)
			})
			// Each consumer task joins the same future.
			var hs []Handle
			for i := 0; i < consumers; i++ {
				hs = append(hs, c.Spawn(func(c *Ctx) []byte {
					c.Compute(5 * 1000)
					return Int64Ret(f.JoinInt64(c) + 1)
				}))
			}
			sum := int64(0)
			for _, h := range hs {
				sum += h.JoinInt64(c)
			}
			return Int64Ret(sum)
		})
		if got := int64(ret[0]); got != 36 {
			t.Errorf("%v: future fan-out sum = %d, want 36", pol, got)
		}
	}
}

func TestFutureJoinedByNonParent(t *testing.T) {
	// A future handle passed to a sibling — the "tasks do not have to be
	// joined with their parent" property.
	for _, pol := range allPolicies {
		rt := New(testConfig(pol, 3))
		ret, _ := rt.Run(func(c *Ctx) []byte {
			producer := c.Spawn(func(c *Ctx) []byte {
				c.Compute(30 * 1000)
				return Int64Ret(21)
			})
			consumer := c.Spawn(func(c *Ctx) []byte {
				return Int64Ret(producer.JoinInt64(c) * 2)
			})
			return Int64Ret(consumer.JoinInt64(c))
		})
		if got := int64(ret[0]); got != 42 {
			t.Errorf("%v: got %d, want 42", pol, got)
		}
	}
}

func TestNoLeakedEntries(t *testing.T) {
	// Every thread entry and context object must be freed by run end.
	for _, pol := range allPolicies {
		rt := New(testConfig(pol, 3))
		_, _ = rt.Run(fibTask(10))
		live := 0
		for _, m := range rt.objs.Mgrs {
			live += m.LiveObjects()
		}
		// Local-collection free bits may still await a sweep; force sweeps
		// via direct counting of unswept freed objects instead: run a
		// collection pass over each rank.
		if live > 0 {
			eng := sim.NewEngine()
			_ = eng // sweeps need a proc; instead check allocator stats:
			st := rt.objs.TotalStats()
			pendingFree := st.RemoteFrees
			if uint64(live) > pendingFree {
				t.Errorf("%v: %d live objects but only %d pending remote frees", pol, live, pendingFree)
			}
		}
	}
}

func TestStackRegionsEmptyAtEnd(t *testing.T) {
	for _, pol := range []Policy{ContGreedy, ContStalling} {
		rt := New(testConfig(pol, 4))
		_, st := rt.Run(fibTask(11))
		for _, w := range rt.workers {
			if w.ua.Uni.Count() != 0 {
				t.Errorf("%v: rank %d uni region holds %d stacks at end", pol, w.rank, w.ua.Uni.Count())
			}
			if w.ua.Evac.Count() != 0 {
				t.Errorf("%v: rank %d evacuation region holds %d stacks at end", pol, w.rank, w.ua.Evac.Count())
			}
		}
		if st.Stack.Conflicts != 0 {
			t.Errorf("%v: %d uni-address conflicts", pol, st.Stack.Conflicts)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, pol := range allPolicies {
		var times [2]sim.Time
		var steals [2]uint64
		for i := 0; i < 2; i++ {
			rt := New(testConfig(pol, 5))
			_, st := rt.Run(fibTask(12))
			times[i] = st.ExecTime
			steals[i] = st.Work.StealsOK
		}
		if times[0] != times[1] || steals[0] != steals[1] {
			t.Errorf("%v: nondeterministic run: times %v/%v steals %d/%d",
				pol, times[0], times[1], steals[0], steals[1])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	cfg1 := testConfig(ContGreedy, 5)
	cfg2 := cfg1
	cfg2.Seed = 99
	_, st1 := New(cfg1).Run(fibTask(13))
	_, st2 := New(cfg2).Run(fibTask(13))
	if st1.Work.StealsFail == st2.Work.StealsFail && st1.ExecTime == st2.ExecTime {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

func TestTimeSeriesSampler(t *testing.T) {
	cfg := testConfig(ContGreedy, 4)
	cfg.Sample = 5 * sim.Microsecond
	rt := New(cfg)
	_, st := rt.Run(fibTask(14))
	if len(st.Series) == 0 {
		t.Fatal("no samples collected")
	}
	for _, s := range st.Series {
		if s.Busy < 0 || s.Busy > 4 {
			t.Fatalf("busy gauge out of range: %d", s.Busy)
		}
		if s.Ready < 0 {
			t.Fatalf("ready gauge negative: %d", s.Ready)
		}
	}
}

func TestEfficiencyReasonable(t *testing.T) {
	// A flat parallel-for-like spawn tree with substantial leaf work should
	// reach decent parallel efficiency on 4 workers.
	var build func(c *Ctx, n int) int64
	build = func(c *Ctx, n int) int64 {
		if n == 1 {
			c.Compute(50 * 1000) // 50us leaves
			return 1
		}
		h := c.Spawn(func(c *Ctx) []byte { return Int64Ret(build(c, n/2)) })
		r := build(c, n-n/2)
		return r + h.JoinInt64(c)
	}
	const leaves = 512
	rt := New(testConfig(ContGreedy, 4))
	ret, st := rt.Run(func(c *Ctx) []byte { return Int64Ret(build(c, leaves)) })
	if got := int64(ret[0]) | int64(ret[1])<<8; got != leaves {
		t.Fatalf("leaf count = %d, want %d", got, leaves)
	}
	t1 := sim.Time(leaves * 50 * 1000)
	if eff := st.Efficiency(t1); eff < 0.5 || eff > 1.01 {
		t.Errorf("parallel efficiency = %.2f, want 0.5-1.0", eff)
	}
}

func TestRandomTreePropertyAllPoliciesAgree(t *testing.T) {
	// Property: a random fork-join tree evaluates to the same sum under
	// every policy and equals the serial evaluation.
	type node struct {
		value    int64
		children []int // indices of child nodes
	}
	check := func(shape []uint8) bool {
		if len(shape) == 0 {
			return true
		}
		if len(shape) > 24 {
			shape = shape[:24]
		}
		// Build a random tree: node i's parent is i*shape[i] mod i.
		nodes := make([]node, len(shape))
		for i := range nodes {
			nodes[i].value = int64(shape[i])
			if i > 0 {
				parent := (i * int(shape[i]%7)) % i
				nodes[parent].children = append(nodes[parent].children, i)
			}
		}
		var serial func(i int) int64
		serial = func(i int) int64 {
			s := nodes[i].value
			for _, ch := range nodes[i].children {
				s += serial(ch)
			}
			return s
		}
		want := serial(0)
		var task func(i int) TaskFunc
		task = func(i int) TaskFunc {
			return func(c *Ctx) []byte {
				c.Compute(sim.Time(nodes[i].value) * 17)
				var hs []Handle
				for _, ch := range nodes[i].children {
					hs = append(hs, c.Spawn(task(ch)))
				}
				s := nodes[i].value
				for _, h := range hs {
					s += h.JoinInt64(c)
				}
				return Int64Ret(s)
			}
		}
		for _, pol := range allPolicies {
			rt := New(testConfig(pol, 3))
			ret, _ := rt.Run(task(0))
			got := int64(uint64(ret[0]) | uint64(ret[1])<<8 | uint64(ret[2])<<16)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaxTimeHorizonPanics(t *testing.T) {
	cfg := testConfig(ContGreedy, 2)
	cfg.MaxTime = 10 * sim.Microsecond // far too short
	rt := New(cfg)
	defer func() {
		if recover() == nil {
			t.Error("run past MaxTime did not panic")
		}
	}()
	rt.Run(fibTask(16))
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		ContGreedy:   "cont-greedy",
		ContStalling: "cont-stalling",
		ChildFull:    "child-full",
		ChildRtC:     "child-rtc",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
	if !ContGreedy.Continuation() || ChildFull.Continuation() {
		t.Error("Continuation() classification wrong")
	}
}

func TestLockQueueStrategyWorks(t *testing.T) {
	cfg := testConfig(ContGreedy, 4)
	cfg.RemoteFree = remobj.LockQueue
	rt := New(cfg)
	_, st := rt.Run(fibTask(12))
	if st.Mem.Allocs == 0 {
		t.Error("no entry allocations recorded")
	}
}

func TestRemoteFreeStrategiesSameResult(t *testing.T) {
	var execTimes []sim.Time
	for _, strat := range []remobj.Strategy{remobj.LockQueue, remobj.LocalCollection} {
		cfg := testConfig(ContGreedy, 4)
		cfg.RemoteFree = strat
		rt := New(cfg)
		ret, st := rt.Run(fibTask(12))
		if got := int64(ret[0]) | int64(ret[1])<<8; got != fibSerial(12) {
			t.Errorf("%v: wrong result %d", strat, got)
		}
		execTimes = append(execTimes, st.ExecTime)
	}
	_ = execTimes
}

// TestRegistryLetsTheDeadGo: the thread registry resolves suspended threads
// (the only lookups there are: loadContext on a join's slow path) and drops a
// thread when its body returns, so a run does not pin every Thread and Proc it
// ever made.
func TestRegistryLetsTheDeadGo(t *testing.T) {
	rt := New(testConfig(ContGreedy, 2))
	ret, st := rt.Run(func(c *Ctx) []byte {
		h := c.Spawn(func(c *Ctx) []byte {
			c.Compute(200 * 1000) // the stolen parent reaches the join and suspends meanwhile
			if parent := rt.thread(c.t.parentID); parent == nil || parent.state != tSuspended {
				t.Errorf("suspended parent does not resolve: %+v", parent)
			}
			return Int64Ret(5)
		})
		c.Compute(50 * 1000)
		return Int64Ret(h.JoinInt64(c) * 2)
	})
	if got := RetInt64(ret); got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
	if st.Work.JoinSlowPath == 0 {
		t.Error("the parent was never resumed through its saved context")
	}
	if len(rt.threads) != 2 {
		t.Fatalf("%d thread ids handed out, want 2", len(rt.threads))
	}
	for id, th := range rt.threads {
		if th != nil {
			t.Errorf("dead thread %d is still registered", id)
		}
	}
}

// TestIdleCycleAllocFree: an idle worker's cycle — pop miss, failed steal,
// backoff — runs on callbacks bound once per worker and deque over pooled
// chain and fabric records, so once warm it allocates nothing, and none of
// its wake-ups needs the worker's goroutine.
func TestIdleCycleAllocFree(t *testing.T) {
	// Two nodes of two: remote and intra-node steal chains, and few enough
	// thieves per victim that every deque's record pool is warm in 1 ms.
	cfg := testConfig(ContGreedy, 4)
	mach := topo.ITOA()
	mach.CoresPerNode = 2
	cfg.Machine = mach
	rt := New(cfg)
	for _, w := range rt.workers {
		w.proc = rt.eng.GoIDOn(rt.shardOf(w.rank), "worker", int64(w.rank), w.schedule)
	}
	defer rt.eng.Shutdown()
	until := sim.Millisecond
	rt.eng.Run(until) // no root task: every worker idles from the start
	window := func() {
		until += 50 * sim.Microsecond
		rt.eng.Run(until)
	}
	fails := func() (n uint64) {
		for _, w := range rt.workers {
			n += w.st.StealsFail
		}
		return n
	}
	switches := func() uint64 { return rt.eng.Stats().Handoffs - rt.eng.InPlace() - rt.eng.Inline() }
	fails0, switches0 := fails(), switches()
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("a 50 µs window of idle cycles allocates %.1f times, want 0", avg)
	}
	if n := fails() - fails0; n < 1000 {
		t.Errorf("only %d failed steals in the measured windows", n)
	}
	if n := switches() - switches0; n != 0 {
		t.Errorf("%d goroutine switches in the measured windows, want 0", n)
	}
}
