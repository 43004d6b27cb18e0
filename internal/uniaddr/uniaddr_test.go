package uniaddr

import (
	"bytes"
	"testing"
	"testing/quick"

	"contsteal/internal/allocs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

func setup(ranks int) (*sim.Engine, *rdma.Fabric, []*Manager) {
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, topo.Uniform(1000), ranks, 1<<16)
	ms := make([]*Manager, ranks)
	for r := 0; r < ranks; r++ {
		ms[r] = New(fab, r, 1<<15, 1<<15)
	}
	return eng, fab, ms
}

func TestRegionAllocLowestFit(t *testing.T) {
	r := NewRegion("t", 1024)
	a, _ := r.Alloc(100) // [0,104)
	b, _ := r.Alloc(100) // [104,208)
	c, _ := r.Alloc(100) // [208,312)
	if a != 0 || b != 104 || c != 208 {
		t.Fatalf("got %d %d %d, want pile 0/104/208", a, b, c)
	}
	r.Free(b, 100)
	d, _ := r.Alloc(50) // fits in the hole
	if d != 104 {
		t.Errorf("hole not reused: got %d, want 104", d)
	}
	e, _ := r.Alloc(100) // hole now too small (50 used), goes on top
	if e != 312 {
		t.Errorf("got %d, want 312", e)
	}
}

func TestRegionExhaustion(t *testing.T) {
	r := NewRegion("t", 128)
	if _, ok := r.Alloc(100); !ok {
		t.Fatal("first alloc failed")
	}
	if _, ok := r.Alloc(100); ok {
		t.Error("overflow alloc succeeded")
	}
}

func TestRegionReserve(t *testing.T) {
	r := NewRegion("t", 1024)
	if !r.Reserve(512, 64) {
		t.Fatal("reserve of free range failed")
	}
	if r.Reserve(500, 64) {
		t.Error("overlapping reserve succeeded")
	}
	if r.Reserve(544, 8) {
		t.Error("reserve inside allocated range succeeded")
	}
	if r.Reserve(1020, 64) {
		t.Error("out-of-range reserve succeeded")
	}
	a, _ := r.Alloc(64)
	if a != 0 {
		t.Errorf("alloc around reservation = %d, want 0", a)
	}
	r.Free(512, 64)
	if !r.Reserve(512, 64) {
		t.Error("re-reserve after free failed")
	}
}

func TestRegionFreeMismatchPanics(t *testing.T) {
	r := NewRegion("t", 1024)
	r.Alloc(64)
	for _, f := range []func(){
		func() { r.Free(8, 64) },  // not an allocation start
		func() { r.Free(0, 128) }, // wrong size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad free did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRegionHighWaterAndCounts(t *testing.T) {
	r := NewRegion("t", 1024)
	a, _ := r.Alloc(100)
	r.Alloc(100)
	r.Free(a, 100)
	if r.Count() != 1 || r.InUse() != 104 {
		t.Errorf("Count=%d InUse=%d, want 1, 104", r.Count(), r.InUse())
	}
	if r.HighWater() != 208 {
		t.Errorf("HighWater=%d, want 208", r.HighWater())
	}
	if !r.Allocated(150) || r.Allocated(50) {
		t.Error("Allocated() wrong")
	}
}

func TestRegionPropertyNoOverlap(t *testing.T) {
	// Random alloc/free/reserve sequences keep intervals disjoint and the
	// accounting consistent.
	check := func(ops []uint16) bool {
		r := NewRegion("q", 4096)
		type blk struct {
			a VAddr
			s int
		}
		var live []blk
		for _, op := range ops {
			switch op % 3 {
			case 0:
				size := int(op%256) + 1
				if a, ok := r.Alloc(size); ok {
					live = append(live, blk{a, size})
				}
			case 1:
				if len(live) > 0 {
					i := int(op) % len(live)
					r.Free(live[i].a, live[i].s)
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				addr := VAddr((op * 8) % 4096)
				size := int(op%128) + 1
				if r.Reserve(addr, size) {
					live = append(live, blk{addr, size})
				}
			}
		}
		// Invariant: sum of live sizes (rounded) == InUse, intervals disjoint.
		sum := 0
		for i, b := range live {
			sum += (b.s + 7) &^ 7
			for j, c := range live {
				if i == j {
					continue
				}
				bl, bh := uint64(b.a), uint64(b.a)+uint64((b.s+7)&^7)
				cl, ch := uint64(c.a), uint64(c.a)+uint64((c.s+7)&^7)
				if bl < ch && cl < bh {
					return false
				}
			}
		}
		return sum == r.InUse() && r.Count() == len(live)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSameLayoutAcrossRanks(t *testing.T) {
	_, _, ms := setup(4)
	for r := 1; r < 4; r++ {
		if !SameLayout(ms[0], ms[r]) {
			t.Fatalf("rank %d has different uni-address layout", r)
		}
	}
}

func TestEvacuateRestoreRoundTrip(t *testing.T) {
	eng, _, ms := setup(1)
	m := ms[0]
	eng.Go("w", func(p *sim.Proc) {
		addr := m.PushStack(256)
		payload := bytes.Repeat([]byte{0xCD}, 256)
		copy(m.UniBytes(addr, 256), payload)
		ev := m.Evacuate(p, addr, 256)
		if m.Uni.Allocated(addr) {
			t.Error("uni slot still allocated after evacuation")
		}
		if !bytes.Equal(m.EvacBytes(ev, 256), payload) {
			t.Error("evacuated bytes corrupted")
		}
		if !m.Restore(p, ev, addr, 256) {
			t.Fatal("restore to original address failed")
		}
		if !bytes.Equal(m.UniBytes(addr, 256), payload) {
			t.Error("restored bytes corrupted")
		}
		if m.St.Evacuations != 1 || m.St.Restores != 1 || m.St.BytesMoved != 512 {
			t.Errorf("stats = %+v", m.St)
		}
	})
	eng.Run(sim.Forever)
}

func TestEvacuateRestorePropertyIdentity(t *testing.T) {
	// Evacuate∘Restore is the identity on stack contents for random data.
	eng, _, ms := setup(1)
	m := ms[0]
	check := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		ok := true
		eng.Go("w", func(p *sim.Proc) {
			addr := m.PushStack(len(data))
			copy(m.UniBytes(addr, len(data)), data)
			ev := m.Evacuate(p, addr, len(data))
			if !m.Restore(p, ev, addr, len(data)) {
				ok = false
				return
			}
			ok = bytes.Equal(m.UniBytes(addr, len(data)), data)
			m.PopStack(addr, len(data))
		})
		eng.Run(sim.Forever)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRestoreConflict(t *testing.T) {
	eng, _, ms := setup(1)
	m := ms[0]
	eng.Go("w", func(p *sim.Proc) {
		a := m.PushStack(128)
		ev := m.Evacuate(p, a, 128)
		// Another stack claims the vacated address.
		b := m.PushStack(128)
		if b != a {
			t.Fatalf("expected lowest-fit to reuse 0x%x, got 0x%x", uint64(a), uint64(b))
		}
		if m.Restore(p, ev, a, 128) {
			t.Error("restore into occupied slot succeeded")
		}
		if m.St.Conflicts != 1 {
			t.Errorf("Conflicts = %d, want 1", m.St.Conflicts)
		}
		m.FreeEvac(ev, 128)
	})
	eng.Run(sim.Forever)
}

func TestMigrateInCopiesAcrossRanks(t *testing.T) {
	eng, _, ms := setup(2)
	victim, thief := ms[0], ms[1]
	eng.Go("steal", func(p *sim.Proc) {
		addr := victim.PushStack(512)
		payload := bytes.Repeat([]byte{0x5A}, 512)
		copy(victim.UniBytes(addr, 512), payload)
		start := p.Now()
		if !thief.MigrateIn(p, victim.UniLoc(addr, 512), addr, 512) {
			t.Fatal("migration failed")
		}
		if p.Now()-start < 1000 {
			t.Error("migration charged no network latency")
		}
		// Uni-address property: the stack is at the same virtual address.
		if !bytes.Equal(thief.UniBytes(addr, 512), payload) {
			t.Error("migrated stack corrupted")
		}
		victim.PopStack(addr, 512) // victim reclaims the hole
	})
	eng.Run(sim.Forever)
	if thief.St.MigrationsIn != 1 {
		t.Errorf("MigrationsIn = %d, want 1", thief.St.MigrationsIn)
	}
}

// TestMigrateInAllocFree: once warm, a remote stack migration — reserve,
// get, release — allocates nothing: 0 mallocs in all over 50.
func TestMigrateInAllocFree(t *testing.T) {
	eng, _, ms := setup(2)
	victim, thief := ms[0], ms[1]
	addr := victim.PushStack(512)
	src := victim.UniLoc(addr, 512)
	migrate := func(p *sim.Proc) {
		if !thief.MigrateIn(p, src, addr, 512) {
			t.Fatal("migration conflicted")
		}
		thief.PopStack(addr, 512)
	}
	var m uint64
	eng.Go("thief", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			migrate(p)
		}
		m = allocs.Count(50, func() { migrate(p) })
	})
	eng.Run(sim.Forever)
	if m != 0 {
		t.Errorf("50 warm remote MigrateIns allocated %d times, want 0", m)
	}
	if thief.St.MigrationsIn != 3+51 {
		t.Errorf("MigrationsIn = %d, want %d", thief.St.MigrationsIn, 3+51)
	}
}

func TestPushStackOverflowPanics(t *testing.T) {
	_, _, ms := setup(1)
	m := ms[0]
	defer func() {
		if recover() == nil {
			t.Error("uni-region overflow did not panic")
		}
	}()
	for i := 0; i < 1<<20; i++ {
		m.PushStack(4096)
	}
}

func TestStackPileGrowsUpward(t *testing.T) {
	// Spawning children places each stack immediately above the previous
	// one (Fig. 2 of the paper).
	_, _, ms := setup(1)
	m := ms[0]
	var prev VAddr
	for i := 0; i < 5; i++ {
		a := m.PushStack(1024)
		if i > 0 && a != prev+1024 {
			t.Fatalf("stack %d at 0x%x, want 0x%x (immediately above)", i, uint64(a), uint64(prev+1024))
		}
		prev = a
	}
}
