package core

import "testing"

// Tests for the extension features: Yield and the iso-address stack scheme
// (topology-aware victim selection is the hier steal policy, see
// stealpolicy_test.go).

func TestYieldRoundRobinsFairly(t *testing.T) {
	// Two long-running tasks on one worker can only interleave via Yield.
	for _, pol := range []Policy{ContGreedy, ContStalling} {
		rt := New(testConfig(pol, 1))
		var trace []int
		_, _ = rt.Run(func(c *Ctx) []byte {
			h := c.Spawn(func(c *Ctx) []byte {
				for i := 0; i < 3; i++ {
					trace = append(trace, 1)
					c.Compute(1000)
					c.Yield()
				}
				return nil
			})
			for i := 0; i < 3; i++ {
				trace = append(trace, 2)
				c.Compute(1000)
				c.Yield()
			}
			h.Join(c)
			return nil
		})
		// Both tasks must have run all their segments.
		ones, twos := 0, 0
		for _, v := range trace {
			if v == 1 {
				ones++
			} else {
				twos++
			}
		}
		if ones != 3 || twos != 3 {
			t.Errorf("%v: trace %v, want 3 segments each", pol, trace)
		}
		// Yield must actually interleave them at least once: the trace must
		// not be fully segregated (111222 or 222111).
		interleaved := false
		for i := 1; i < len(trace)-1; i++ {
			if trace[i] != trace[i-1] && trace[i] != trace[i+1] && trace[i-1] == trace[i+1] {
				interleaved = true
			}
		}
		if !interleaved {
			t.Errorf("%v: yield produced no interleaving: %v", pol, trace)
		}
	}
}

func TestYieldedContinuationCanBeStolen(t *testing.T) {
	// Two tasks yield-alternate on worker 0 while worker 1 idles: whichever
	// continuation waits at the steal end of the deque while the other
	// computes must eventually be stolen (the yielded task migrates).
	// Three yielding tasks on two workers: the doubly-loaded worker's
	// yielded continuation sits at the steal end while its sibling runs,
	// so the other worker (whenever briefly idle) can take it.
	rt := New(testConfig(ContGreedy, 2))
	migrated := false
	yielding := func(c *Ctx) {
		home := c.Rank()
		for i := 0; i < 15; i++ {
			c.Compute(20 * 1000)
			c.Yield()
			if c.Rank() != home {
				migrated = true
				home = c.Rank()
			}
		}
	}
	_, st := rt.Run(func(c *Ctx) []byte {
		var hs []Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, c.Spawn(func(c *Ctx) []byte { yielding(c); return nil }))
		}
		for _, h := range hs {
			h.Join(c)
		}
		return nil
	})
	if !migrated {
		t.Errorf("no yielded continuation migrated (steals %d)", st.Work.StealsOK)
	}
}

func TestYieldRtCIsHelpFirst(t *testing.T) {
	// Under ChildRtC, Yield runs another ready task inline.
	rt := New(testConfig(ChildRtC, 1))
	var order []string
	_, _ = rt.Run(func(c *Ctx) []byte {
		h := c.Spawn(func(c *Ctx) []byte {
			order = append(order, "child")
			return nil
		})
		order = append(order, "before-yield")
		c.Yield() // must execute the spawned child inline
		order = append(order, "after-yield")
		h.Join(c)
		return nil
	})
	if len(order) != 3 || order[1] != "child" {
		t.Errorf("RtC yield order = %v, want child between yield points", order)
	}
}

func TestIsoAddressCorrectAndAccountsAddressSpace(t *testing.T) {
	for _, pol := range []Policy{ContGreedy, ContStalling} {
		cfg := testConfig(pol, 4)
		cfg.StackScheme = IsoAddress
		rt := New(cfg)
		ret, st := rt.Run(fibTask(12))
		if got := int64(ret[0]) | int64(ret[1])<<8; got != fibSerial(12) {
			t.Errorf("%v/iso: got %d, want %d", pol, got, fibSerial(12))
		}
		// Iso-address never evacuates...
		if st.Stack.Evacuations != 0 {
			t.Errorf("%v/iso: %d evacuations under iso-address", pol, st.Stack.Evacuations)
		}
		// ...and consumes one globally unique address range per thread.
		spawns := st.Work.Spawns + 1 // +1 for the root
		if st.IsoVirtualBytes != uint64(spawns)*1600 {
			t.Errorf("%v/iso: virtual consumption %d bytes, want %d (spawns %d × 1600)",
				pol, st.IsoVirtualBytes, spawns*1600, spawns)
		}
	}
}

func TestUniAddressReusesAddressSpace(t *testing.T) {
	// The point of §II-D: uni-address virtual consumption is bounded by the
	// concurrently live stacks, not the total thread count.
	cfg := testConfig(ContGreedy, 4)
	rt := New(cfg)
	_, st := rt.Run(fibTask(14))
	if st.IsoVirtualBytes != 0 {
		t.Error("uni-address run reported iso consumption")
	}
	var maxHigh int
	for _, w := range rt.workers {
		if hw := w.ua.Uni.HighWater(); hw > maxHigh {
			maxHigh = hw
		}
	}
	// fib(14) spawns ~600 threads; the uni-address high-water must stay far
	// below 600 × 1600 bytes (it is bounded by the spawn depth).
	if maxHigh > 100*1600 {
		t.Errorf("uni-address high water %d bytes — address space not being reused", maxHigh)
	}
}

func TestIsoVsUniConsumptionGap(t *testing.T) {
	// Head-to-head on an identical workload: iso consumption must exceed
	// uni consumption by a large factor.
	cfgU := testConfig(ContGreedy, 4)
	rtU := New(cfgU)
	_, _ = rtU.Run(fibTask(14))
	var uniHigh uint64
	for _, w := range rtU.workers {
		uniHigh += uint64(w.ua.Uni.HighWater())
	}
	cfgI := testConfig(ContGreedy, 4)
	cfgI.StackScheme = IsoAddress
	rtI := New(cfgI)
	_, stI := rtI.Run(fibTask(14))
	if stI.IsoVirtualBytes < 5*uniHigh {
		t.Errorf("iso (%d B) vs uni (%d B): expected ≫ gap", stI.IsoVirtualBytes, uniHigh)
	}
}

func TestStackSchemeString(t *testing.T) {
	if UniAddress.String() != "uni-address" || IsoAddress.String() != "iso-address" {
		t.Error("StackScheme names wrong")
	}
}
