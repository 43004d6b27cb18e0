package rdma

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

func newTestFabric(lat sim.Time, ranks int) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine()
	return eng, NewFabric(eng, topo.Uniform(lat), ranks, 1024)
}

func TestLocEncodeDecodeRoundTrip(t *testing.T) {
	f := func(rank int32, addr uint64, size int32) bool {
		l := Loc{Rank: rank, Addr: Addr(addr), Size: size}
		var buf [LocSize]byte
		EncodeLoc(buf[:], l)
		return DecodeLoc(buf[:]) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocValid(t *testing.T) {
	if (Loc{}).Valid() {
		t.Error("zero Loc must be invalid")
	}
	if !(Loc{Rank: 0, Addr: 8, Size: 8}).Valid() {
		t.Error("allocated Loc must be valid")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	eng, f := newTestFabric(1000, 2)
	addr := f.Alloc(1, 64)
	loc := Loc{Rank: 1, Addr: addr, Size: 64}
	var got [5]byte
	eng.Go("w0", func(p *sim.Proc) {
		f.Put(p, 0, loc, []byte("hello"))
		f.Get(p, 0, loc, got[:])
	})
	eng.Run(sim.Forever)
	if string(got[:]) != "hello" {
		t.Errorf("got %q, want hello", got)
	}
	if eng.Now() != 2000 {
		t.Errorf("two remote ops took %v, want 2000ns", eng.Now())
	}
}

func TestSelfAccessIsFree(t *testing.T) {
	eng, f := newTestFabric(1000, 2)
	addr := f.Alloc(0, 8)
	loc := Loc{Rank: 0, Addr: addr, Size: 8}
	eng.Go("w0", func(p *sim.Proc) {
		f.PutInt64(p, 0, loc, 42)
		if v := f.GetInt64(p, 0, loc); v != 42 {
			t.Errorf("self get = %d, want 42", v)
		}
	})
	eng.Run(sim.Forever)
	if eng.Now() != 0 {
		t.Errorf("self-access advanced clock to %v, want 0", eng.Now())
	}
	st := f.Stats(0)
	if st.LocalOps != 2 || st.Gets != 0 || st.Puts != 0 {
		t.Errorf("stats = %+v, want 2 local ops only", st)
	}
}

func TestFetchAddSerializes(t *testing.T) {
	eng, f := newTestFabric(1000, 5)
	addr := f.Alloc(0, 8)
	loc := Loc{Rank: 0, Addr: addr, Size: 8}
	seen := make(map[int64]bool)
	for r := 1; r < 5; r++ {
		r := r
		eng.Go("w", func(p *sim.Proc) {
			p.Sleep(sim.Time(r)) // stagger issue times
			old := f.FetchAdd(p, r, loc, 1)
			if seen[old] {
				t.Errorf("fetch_add returned duplicate old value %d", old)
			}
			seen[old] = true
		})
	}
	eng.Run(sim.Forever)
	if got := f.Seg(0).ReadInt64(addr); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	for i := int64(0); i < 4; i++ {
		if !seen[i] {
			t.Errorf("old value %d never returned", i)
		}
	}
}

func TestCAS(t *testing.T) {
	eng, f := newTestFabric(100, 3)
	addr := f.Alloc(0, 8)
	loc := Loc{Rank: 0, Addr: addr, Size: 8}
	f.Seg(0).WriteInt64(addr, 7)
	var results []int64
	for r := 1; r < 3; r++ {
		r := r
		eng.Go("w", func(p *sim.Proc) {
			p.Sleep(sim.Time(r))
			results = append(results, f.CAS(p, r, loc, 7, int64(100+r)))
		})
	}
	eng.Run(sim.Forever)
	// Exactly one CAS succeeds (observes 7); the other observes the winner's value.
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0] != 7 {
		t.Errorf("first CAS observed %d, want 7", results[0])
	}
	if results[1] != 101 {
		t.Errorf("second CAS observed %d, want 101 (winner's value)", results[1])
	}
	if got := f.Seg(0).ReadInt64(addr); got != 101 {
		t.Errorf("final value = %d, want 101", got)
	}
}

func TestAtomicityUnderConcurrentIncrement(t *testing.T) {
	// Property-style: N workers each add 1 k times; final value must be N*k
	// regardless of latencies.
	eng, f := newTestFabric(333, 8)
	addr := f.Alloc(3, 8)
	loc := Loc{Rank: 3, Addr: addr, Size: 8}
	const k = 20
	for r := 0; r < 8; r++ {
		r := r
		eng.Go("w", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				p.Sleep(sim.Time((r*13 + i*7) % 50))
				f.FetchAdd(p, r, loc, 1)
			}
		})
	}
	eng.Run(sim.Forever)
	if got := f.Seg(3).ReadInt64(addr); got != 8*k {
		t.Errorf("counter = %d, want %d", got, 8*k)
	}
}

func TestAllocatorReuse(t *testing.T) {
	_, f := newTestFabric(0, 1)
	a := f.Alloc(0, 48)
	b := f.Alloc(0, 48)
	if a == b {
		t.Fatal("distinct allocations share an address")
	}
	f.Free(0, a, 48)
	c := f.Alloc(0, 48)
	if c != a {
		t.Errorf("freed block not reused: got 0x%x, want 0x%x", uint64(c), uint64(a))
	}
}

func TestAllocZeroesReusedMemory(t *testing.T) {
	_, f := newTestFabric(0, 1)
	a := f.Alloc(0, 16)
	copy(f.Seg(0).Bytes(a, 16), "dirty dirty data")
	f.Free(0, a, 16)
	b := f.Alloc(0, 16)
	for i, v := range f.Seg(0).Bytes(b, 16) {
		if v != 0 {
			t.Fatalf("reused memory not zeroed at byte %d", i)
		}
	}
}

func TestAllocatorAlignment(t *testing.T) {
	_, f := newTestFabric(0, 1)
	for _, size := range []int{1, 3, 7, 8, 9, 17} {
		a := f.Alloc(0, size)
		if uint64(a)%8 != 0 {
			t.Errorf("Alloc(%d) returned unaligned address 0x%x", size, uint64(a))
		}
	}
}

func TestSegmentGrowth(t *testing.T) {
	_, f := newTestFabric(0, 1)
	// Initial segment is 1024 bytes; allocate well past it.
	a := f.Alloc(0, 8192)
	b := f.Seg(0).Bytes(a, 8192)
	b[8191] = 0xAB
	if f.Seg(0).Bytes(a, 8192)[8191] != 0xAB {
		t.Error("grown segment lost data")
	}
}

func TestHighWaterMark(t *testing.T) {
	_, f := newTestFabric(0, 1)
	a := f.Alloc(0, 100) // rounds to 104
	f.Alloc(0, 100)
	f.Free(0, a, 100)
	s := f.Seg(0)
	if s.InUse() != 104 {
		t.Errorf("InUse = %d, want 104", s.InUse())
	}
	if s.HighWater() != 208 {
		t.Errorf("HighWater = %d, want 208", s.HighWater())
	}
}

func TestAllocatorNeverOverlapsProperty(t *testing.T) {
	// Random alloc/free sequences must never hand out overlapping live blocks.
	check := func(ops []uint8) bool {
		_, f := newTestFabric(0, 1)
		type block struct {
			addr Addr
			size int
		}
		var live []block
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				f.Free(0, live[i].addr, live[i].size)
				live = append(live[:i], live[i+1:]...)
			} else {
				size := int(op%64) + 1
				a := f.Alloc(0, size)
				rounded := (size + 7) &^ 7
				for _, b := range live {
					br := (b.size + 7) &^ 7
					if uint64(a) < uint64(b.addr)+uint64(br) && uint64(b.addr) < uint64(a)+uint64(rounded) {
						return false
					}
				}
				live = append(live, block{a, size})
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGetOversizePanics(t *testing.T) {
	eng, f := newTestFabric(0, 2)
	addr := f.Alloc(1, 8)
	loc := Loc{Rank: 1, Addr: addr, Size: 8}
	eng.Go("w0", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversize get did not panic")
			}
		}()
		var buf [16]byte
		f.Get(p, 0, loc, buf[:])
	})
	eng.Run(sim.Forever)
}

func TestNilAddressPanics(t *testing.T) {
	_, f := newTestFabric(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("access through nil address did not panic")
		}
	}()
	f.Seg(0).ReadInt64(0)
}

func TestStatsCounting(t *testing.T) {
	eng, f := newTestFabric(10, 2)
	addr := f.Alloc(1, 32)
	loc := Loc{Rank: 1, Addr: addr, Size: 32}
	eng.Go("w0", func(p *sim.Proc) {
		f.Put(p, 0, loc, make([]byte, 32))
		var buf [16]byte
		f.Get(p, 0, Loc{Rank: 1, Addr: addr, Size: 16}, buf[:])
		f.FetchAdd(p, 0, Loc{Rank: 1, Addr: addr, Size: 8}, 1)
	})
	eng.Run(sim.Forever)
	st := f.Stats(0)
	if st.Puts != 1 || st.Gets != 1 || st.Atomics != 1 {
		t.Errorf("op counts = %+v", st)
	}
	if st.BytesOut != 32 || st.BytesIn != 16 {
		t.Errorf("byte counts = %+v", st)
	}
	total := f.TotalStats()
	if total.Puts != 1 || total.Gets != 1 {
		t.Errorf("total stats = %+v", total)
	}
}

func TestTimingIntraVsInterNode(t *testing.T) {
	eng := sim.NewEngine()
	m := topo.ITOA()
	f := NewFabric(eng, m, 72, 256) // two nodes of 36
	addrSame := f.Alloc(1, 8)
	addrFar := f.Alloc(40, 8)
	var tIntra, tInter sim.Time
	eng.Go("w0", func(p *sim.Proc) {
		start := p.Now()
		f.GetInt64(p, 0, Loc{Rank: 1, Addr: addrSame, Size: 8})
		tIntra = p.Now() - start
		start = p.Now()
		f.GetInt64(p, 0, Loc{Rank: 40, Addr: addrFar, Size: 8})
		tInter = p.Now() - start
	})
	eng.Run(sim.Forever)
	if !(tIntra < tInter) {
		t.Errorf("intra-node get (%v) should be faster than inter-node (%v)", tIntra, tInter)
	}
}

// TestStaticBackingFollowsTouch: a reservation costs what is touched inside
// it, wherever it sits — the first KB of a 16 MiB allocation behind a 4 MiB
// one commits KBs, not the MiB in front of it.
func TestStaticBackingFollowsTouch(t *testing.T) {
	_, f := newTestFabric(0, 1)
	s := f.Seg(0)
	f.AllocStatic(0, 4<<20)
	big := f.AllocStatic(0, 16<<20)
	before := s.Backing()
	s.Bytes(big, 1024)[1023] = 1
	if got := s.Backing() - before; got == 0 || got > 8<<10 {
		t.Errorf("touching 1 KiB of a 16 MiB static allocation committed %d bytes, want KBs", got)
	}
	small := f.AllocStatic(0, 8)
	before = s.Backing()
	s.WriteInt64(small, 1)
	if got := s.Backing() - before; got != 8 {
		t.Errorf("an 8-byte static allocation committed %d bytes, want 8 (its own size caps it)", got)
	}
}

func TestStaticGrowthKeepsBytes(t *testing.T) {
	_, f := newTestFabric(0, 1)
	s := f.Seg(0)
	a := f.AllocStatic(0, 1<<20)
	copy(s.Bytes(a+40, 5), "hello")
	before := s.Backing()
	s.Bytes(a+100<<10, 8)[0] = 7 // far past the first step: the backing grows
	if s.Backing() == before {
		t.Fatal("backing did not grow")
	}
	if got := string(s.Bytes(a+40, 5)); got != "hello" {
		t.Errorf("bytes written before the growth step read %q after it", got)
	}
}

// TestStaticAccessPanics: an access must lie inside one static allocation;
// the panic names the address and the allocation it ran out of (or that
// there is none).
func TestStaticAccessPanics(t *testing.T) {
	_, f := newTestFabric(0, 1)
	s := f.Seg(0)
	first := f.AllocStatic(0, 64)
	last := f.AllocStatic(0, 32)
	at := func(a Addr, n int) string { return fmt.Sprintf("[0x%x,+%d)", uint64(a), n) }
	for _, c := range []struct {
		name string
		addr Addr
		n    int
		want []string
	}{
		{"into the next allocation", first + 60, 8, []string{at(first+60, 8), "allocation " + at(first, 64)}},
		{"one past sbump", last + 25, 8, []string{at(last+25, 8), "allocation " + at(last, 32)}},
		{"inside no allocation", last + 4096, 8, []string{at(last+4096, 8), "no allocation", fmt.Sprintf("ends at 0x%x", uint64(last+32))}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				for _, w := range c.want {
					if !strings.Contains(msg, w) {
						t.Errorf("%s: panic %q does not name %q", c.name, msg, w)
					}
				}
			}()
			s.Bytes(c.addr, c.n)
		}()
	}
}

// TestChainReusesOneRecord: a completion record goes back to the pool before
// its continuation runs, so a chain whose every link issues the next remote
// op needs one record in all — and each link still sees its own value.
func TestChainReusesOneRecord(t *testing.T) {
	eng, f := newTestFabric(100, 2)
	base := f.Alloc(1, 5*8)
	for i := 0; i < 5; i++ {
		f.Seg(1).WriteInt64(base+Addr(8*i), int64(10+i))
	}
	var got []int64
	eng.Go("w0", func(p *sim.Proc) {
		c := eng.NewChain(p)
		var link func(v int64)
		issue := func() {
			f.GetInt64Async(0, Loc{Rank: 1, Addr: base + Addr(8*len(got)), Size: 8}, link)
		}
		link = func(v int64) {
			if got = append(got, v); len(got) == 5 {
				c.Complete()
				return
			}
			issue()
		}
		issue()
		c.Wait()
	})
	eng.Run(sim.Forever)
	if want := []int64{10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Errorf("chain delivered %v, want %v", got, want)
	}
	if f.ops == nil || f.ops.next != nil {
		t.Error("five chained ops did not share one pooled record")
	}
	if eng.Now() != 500 {
		t.Errorf("five remote ops took %v, want 500ns", eng.Now())
	}
}

// allocsInProc runs op under testing.AllocsPerRun on a proc of its own, after
// a few warm-up calls have filled the pools (chains, records, event heap).
func allocsInProc(eng *sim.Engine, op func(p *sim.Proc)) (avg float64) {
	eng.Go("w0", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			op(p)
		}
		avg = testing.AllocsPerRun(50, func() { op(p) })
	})
	eng.Run(sim.Forever)
	return avg
}

// TestLocalOpsAllocFree: a same-rank op completes inline — no chain, no
// closure, no event — through every blocking wrapper.
func TestLocalOpsAllocFree(t *testing.T) {
	eng, f := newTestFabric(1000, 2)
	loc := Loc{Rank: 0, Addr: f.Alloc(0, 16), Size: 16}
	word := Loc{Rank: 0, Addr: loc.Addr, Size: 8}
	var buf [16]byte
	avg := allocsInProc(eng, func(p *sim.Proc) {
		f.Put(p, 0, loc, buf[:])
		f.Get(p, 0, loc, buf[:])
		f.PutInt64(p, 0, word, 3)
		f.FetchAdd(p, 0, word, 1)
		if f.CAS(p, 0, word, 4, 5) != 4 || f.GetInt64(p, 0, word) != 5 {
			t.Error("same-rank ops lost a value")
		}
	})
	if avg != 0 {
		t.Errorf("same-rank ops allocate %.1f times per run, want 0", avg)
	}
	if eng.Now() != 0 || eng.Stats().Events != 1 {
		t.Errorf("same-rank ops cost time or events: now %v, %d events (want the proc's own start only)", eng.Now(), eng.Stats().Events)
	}
}

// TestRemoteOpAllocFree: once warm, a remote op — blocking, or split-phase
// with a callback the caller made ahead of time — allocates nothing.
func TestRemoteOpAllocFree(t *testing.T) {
	eng, f := newTestFabric(1000, 2)
	loc := Loc{Rank: 1, Addr: f.Alloc(1, 16), Size: 16}
	word := Loc{Rank: 1, Addr: loc.Addr, Size: 8}
	var (
		buf  [16]byte
		c    *sim.Chain
		seen int64
	)
	then := func(v int64) { seen = v; c.Complete() }
	avg := allocsInProc(eng, func(p *sim.Proc) {
		f.Put(p, 0, loc, buf[:])
		f.Get(p, 0, loc, buf[:])
		f.PutInt64(p, 0, word, 3)
		f.FetchAdd(p, 0, word, 1)
		if f.CAS(p, 0, word, 4, 5) != 4 || f.GetInt64(p, 0, word) != 5 {
			t.Error("remote ops lost a value")
		}
		c = eng.NewChain(p)
		f.FetchAddAsync(0, word, 0, then)
		c.Wait()
		if seen != 5 {
			t.Errorf("split-phase fetch-add delivered %d, want 5", seen)
		}
	})
	if avg != 0 {
		t.Errorf("warmed remote ops allocate %.1f times per run, want 0", avg)
	}
}
