package remobj

import (
	"testing"
	"testing/quick"

	"contsteal/internal/allocs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

func setup(strategy Strategy, ranks int) (*sim.Engine, *rdma.Fabric, *Space) {
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, topo.Uniform(1000), ranks, 1<<16)
	return eng, fab, NewSpace(fab, strategy)
}

func TestAllocAndLocalFree(t *testing.T) {
	for _, strat := range []Strategy{LockQueue, LocalCollection} {
		eng, _, s := setup(strat, 1)
		eng.Go("w", func(p *sim.Proc) {
			loc := s.Alloc(p, 0, 64)
			if !loc.Valid() || loc.Size != 64 {
				t.Fatalf("%v: bad loc %v", strat, loc)
			}
			if s.Mgrs[0].LiveBytes() != 64 || s.Mgrs[0].LiveObjects() != 1 {
				t.Errorf("%v: live accounting wrong", strat)
			}
			s.Free(p, 0, loc)
			if s.Mgrs[0].LiveBytes() != 0 || s.Mgrs[0].LiveObjects() != 0 {
				t.Errorf("%v: object not reclaimed on local free", strat)
			}
		})
		eng.Run(sim.Forever)
	}
}

func TestObjectPayloadUsable(t *testing.T) {
	eng, fab, s := setup(LocalCollection, 2)
	eng.Go("w", func(p *sim.Proc) {
		loc := s.Alloc(p, 0, 16)
		fab.PutInt64(p, 1, loc, 4242) // remote write by rank 1
		if got := fab.Seg(0).ReadInt64(loc.Addr); got != 4242 {
			t.Errorf("payload = %d, want 4242", got)
		}
	})
	eng.Run(sim.Forever)
}

func TestLocalCollectionRemoteFree(t *testing.T) {
	eng, _, s := setup(LocalCollection, 2)
	eng.Go("w", func(p *sim.Proc) {
		loc := s.Alloc(p, 0, 64)
		// Rank 1 frees rank 0's object: one nonblocking put.
		start := p.Now()
		s.Free(p, 1, loc)
		if d := p.Now() - start; d != rdma.InjectCost {
			t.Errorf("remote free blocked for %v, want inject cost %v", d, rdma.InjectCost)
		}
		// Object still live until the owner sweeps, after the put lands.
		if s.Mgrs[0].LiveObjects() != 1 {
			t.Error("object reclaimed before sweep")
		}
		p.Sleep(10 * sim.Microsecond) // let the async put land
		s.Collect(p, 0)
		if s.Mgrs[0].LiveObjects() != 0 {
			t.Error("sweep did not reclaim the freed object")
		}
	})
	eng.Run(sim.Forever)
	st := s.Stats(0)
	if st.Sweeps != 1 || st.Swept != 1 {
		t.Errorf("owner stats = %+v", st)
	}
	if s.Stats(1).RemoteFrees != 1 {
		t.Errorf("rank1 stats = %+v", s.Stats(1))
	}
}

func TestLocalCollectionAutoSweepOnPressure(t *testing.T) {
	eng, _, s := setup(LocalCollection, 2)
	s.Mgrs[0].SweepLimit = 1024
	eng.Go("w", func(p *sim.Proc) {
		var locs []rdma.Loc
		for i := 0; i < 8; i++ {
			locs = append(locs, s.Alloc(p, 0, 128))
		}
		for _, l := range locs {
			s.Free(p, 1, l)
		}
		p.Sleep(10 * sim.Microsecond)
		// Next allocation exceeds the limit and must trigger a sweep.
		s.Alloc(p, 0, 128)
		if s.Mgrs[0].LiveObjects() != 1 {
			t.Errorf("after pressure sweep: %d live objects, want 1", s.Mgrs[0].LiveObjects())
		}
	})
	eng.Run(sim.Forever)
	if s.Stats(0).Sweeps == 0 {
		t.Error("allocation pressure did not trigger a sweep")
	}
}

func TestLockQueueRemoteFree(t *testing.T) {
	eng, _, s := setup(LockQueue, 2)
	eng.Go("w", func(p *sim.Proc) {
		loc := s.Alloc(p, 0, 64)
		start := p.Now()
		s.Free(p, 1, loc)
		// Four blocking round trips at 1000ns each.
		if d := p.Now() - start; d != 4000 {
			t.Errorf("lock-queue remote free took %v, want 4000ns (4 round trips)", d)
		}
		if s.Mgrs[0].LiveObjects() != 1 {
			t.Error("object reclaimed before drain")
		}
		s.Collect(p, 0)
		if s.Mgrs[0].LiveObjects() != 0 {
			t.Error("drain did not reclaim the freed object")
		}
	})
	eng.Run(sim.Forever)
	st := s.Stats(0)
	if st.Drains != 1 || st.Drained != 1 {
		t.Errorf("owner stats = %+v", st)
	}
}

func TestLockQueueContention(t *testing.T) {
	// Two remote freers contend for the same owner queue; both frees must
	// eventually land and both objects be reclaimed.
	eng, _, s := setup(LockQueue, 3)
	var locs []rdma.Loc
	eng.Go("owner", func(p *sim.Proc) {
		locs = append(locs, s.Alloc(p, 0, 32), s.Alloc(p, 0, 32))
	})
	for r := 1; r <= 2; r++ {
		r := r
		eng.GoAfter(10, "freer", func(p *sim.Proc) {
			s.Free(p, r, locs[r-1])
		})
	}
	eng.Run(sim.Forever)
	eng.Go("owner2", func(p *sim.Proc) { s.Collect(p, 0) })
	eng.Run(sim.Forever)
	if s.Mgrs[0].LiveObjects() != 0 {
		t.Errorf("%d objects leaked", s.Mgrs[0].LiveObjects())
	}
}

func TestRemoteFreeCheaperWithLocalCollection(t *testing.T) {
	// The headline claim of §III-B: local collection moves cost off the
	// remote worker's critical path.
	cost := func(strat Strategy) sim.Time {
		eng, _, s := setup(strat, 2)
		var d sim.Time
		eng.Go("w", func(p *sim.Proc) {
			loc := s.Alloc(p, 0, 64)
			start := p.Now()
			s.Free(p, 1, loc)
			d = p.Now() - start
		})
		eng.Run(sim.Forever)
		return d
	}
	lq, lc := cost(LockQueue), cost(LocalCollection)
	if lc*5 > lq {
		t.Errorf("local collection free (%v) not ≫ cheaper than lock queue (%v)", lc, lq)
	}
}

func TestDoubleLocalFreePanics(t *testing.T) {
	eng, _, s := setup(LocalCollection, 1)
	eng.Go("w", func(p *sim.Proc) {
		loc := s.Alloc(p, 0, 64)
		s.Free(p, 0, loc)
		defer func() {
			if recover() == nil {
				t.Error("double free did not panic")
			}
		}()
		s.Free(p, 0, loc)
	})
	eng.Run(sim.Forever)
}

func TestNoDoubleReclaimProperty(t *testing.T) {
	// Property: random mixes of local and remote frees reclaim each object
	// exactly once and never corrupt the accounting.
	check := func(ops []uint8) bool {
		eng, _, s := setup(LocalCollection, 2)
		ok := true
		eng.Go("w", func(p *sim.Proc) {
			var live []rdma.Loc
			allocated, freed := 0, 0
			for _, op := range ops {
				switch op % 3 {
				case 0:
					live = append(live, s.Alloc(p, 0, int(op%100)+8))
					allocated++
				case 1:
					if len(live) > 0 {
						s.Free(p, 0, live[0]) // local free
						live = live[1:]
						freed++
					}
				case 2:
					if len(live) > 0 {
						s.Free(p, 1, live[0]) // remote free (free bit)
						live = live[1:]
						freed++
					}
				}
			}
			p.Sleep(10 * sim.Microsecond)
			s.Collect(p, 0)
			if s.Mgrs[0].LiveObjects() != allocated-freed {
				ok = false
			}
		})
		eng.Run(sim.Forever)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRecycledObjectsAllocFree: a reclaimed object's node goes on its
// manager's free list and a remote free's put snapshots its source into a
// pooled buffer, so once warm an allocation freed by its owner, and one freed
// remotely and then swept, each allocate nothing: 0 mallocs in all over 50
// runs of each.
func TestRecycledObjectsAllocFree(t *testing.T) {
	eng, _, s := setup(LocalCollection, 2)
	var local, remote uint64
	eng.Go("w", func(p *sim.Proc) {
		freeLocal := func() { s.Free(p, 0, s.Alloc(p, 0, 64)) }
		freeRemote := func() {
			s.Free(p, 1, s.Alloc(p, 0, 64))
			p.Sleep(10 * sim.Microsecond) // let the free bit land
			s.Collect(p, 0)
		}
		for i := 0; i < 3; i++ {
			freeLocal()
			freeRemote()
		}
		local = allocs.Count(50, freeLocal)
		remote = allocs.Count(50, freeRemote)
	})
	eng.Run(sim.Forever)
	if local != 0 {
		t.Errorf("50 allocs → local frees allocated %d times, want 0", local)
	}
	if remote != 0 {
		t.Errorf("50 allocs → remote frees → sweeps allocated %d times, want 0", remote)
	}
	if m := s.Mgrs[0]; m.LiveObjects() != 0 || m.St.Swept != 54 {
		t.Errorf("%d objects live, %d swept; want 0 and 54", m.LiveObjects(), m.St.Swept)
	}
}
