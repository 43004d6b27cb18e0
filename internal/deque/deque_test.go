package deque

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"contsteal/internal/obs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

const es = 16 // entry size used in tests

func setup(ranks int) (*sim.Engine, *Deque) {
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, topo.Uniform(1000), ranks, 1<<16)
	return eng, New(fab, 0, 256, es)
}

func mk(v uint64) []byte {
	b := make([]byte, es)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func rd(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func TestPushPopLIFO(t *testing.T) {
	eng, d := setup(1)
	eng.Go("owner", func(p *sim.Proc) {
		for i := uint64(1); i <= 5; i++ {
			d.Push(p, mk(i), int(i))
		}
		if d.Len() != 5 {
			t.Errorf("Len = %d, want 5", d.Len())
		}
		for want := uint64(5); want >= 1; want-- {
			e, obj, ok := d.Pop(p)
			if !ok || rd(e) != want || obj.(int) != int(want) {
				t.Fatalf("pop got (%v,%v,%v), want %d", rd(e), obj, ok, want)
			}
		}
		if _, _, ok := d.Pop(p); ok {
			t.Error("pop from empty deque succeeded")
		}
	})
	eng.Run(sim.Forever)
}

func TestStealFIFO(t *testing.T) {
	eng, d := setup(2)
	eng.Go("owner", func(p *sim.Proc) {
		for i := uint64(1); i <= 3; i++ {
			d.Push(p, mk(i), nil)
		}
	})
	eng.GoAfter(10, "thief", func(p *sim.Proc) {
		for want := uint64(1); want <= 3; want++ {
			e, _, ok := d.Steal(p, 1)
			if !ok || rd(e) != want {
				t.Fatalf("steal got (%v,%v), want %d (oldest first)", rd(e), ok, want)
			}
		}
		if _, _, ok := d.Steal(p, 1); ok {
			t.Error("steal from empty deque succeeded")
		}
	})
	eng.Run(sim.Forever)
	if d.St.StealsOK != 3 || d.St.StealsEmpty != 1 {
		t.Errorf("stats = %+v", d.St)
	}
}

func TestStealCostsRemoteLatency(t *testing.T) {
	eng, d := setup(2)
	var dur sim.Time
	eng.Go("owner", func(p *sim.Proc) { d.Push(p, mk(7), nil) })
	eng.GoAfter(100, "thief", func(p *sim.Proc) {
		start := p.Now()
		if _, _, ok := d.Steal(p, 1); !ok {
			t.Fatal("steal failed")
		}
		dur = p.Now() - start
	})
	eng.Run(sim.Forever)
	// Protocol: empty-check get + lock CAS + recheck get + entry get +
	// top put + unlock put = 6 remote ops at 1000ns each.
	if dur != 6000 {
		t.Errorf("successful steal took %v, want 6000ns (6 ops)", dur)
	}
}

func TestFailedStealIsCheap(t *testing.T) {
	eng, d := setup(2)
	var dur sim.Time
	eng.Go("thief", func(p *sim.Proc) {
		start := p.Now()
		if _, _, ok := d.Steal(p, 1); ok {
			t.Fatal("steal from empty deque succeeded")
		}
		dur = p.Now() - start
	})
	eng.Run(sim.Forever)
	if dur != 1000 {
		t.Errorf("failed steal took %v, want 1000ns (1 op)", dur)
	}
}

func TestOwnerThiefRaceOnLastEntry(t *testing.T) {
	// The classic THE hazard: one entry, owner pops while a thief is
	// mid-steal. Exactly one of them must win.
	for delay := sim.Time(0); delay < 8000; delay += 250 {
		eng, d := setup(2)
		wins := 0
		eng.Go("owner", func(p *sim.Proc) {
			d.Push(p, mk(99), nil)
			p.Sleep(delay)
			if _, _, ok := d.Pop(p); ok {
				wins++
			}
		})
		eng.Go("thief", func(p *sim.Proc) {
			if _, _, ok := d.Steal(p, 1); ok {
				wins++
			}
		})
		eng.Run(sim.Forever)
		if wins != 1 {
			t.Fatalf("delay %v: %d winners for 1 entry", delay, wins)
		}
	}
}

func TestTwoThievesOneEntry(t *testing.T) {
	for delay := sim.Time(0); delay < 4000; delay += 100 {
		eng, d := setup(3)
		wins := 0
		eng.Go("owner", func(p *sim.Proc) { d.Push(p, mk(1), "payload") })
		for r := 1; r <= 2; r++ {
			r := r
			eng.GoAfter(sim.Time(r-1)*delay+10, "thief", func(p *sim.Proc) {
				if e, obj, ok := d.Steal(p, r); ok {
					wins++
					if rd(e) != 1 || obj != "payload" {
						t.Errorf("delay %v: thief %d stole (%d, %v), want (1, payload)", delay, r, rd(e), obj)
					}
				} else if e != nil || obj != nil {
					t.Errorf("delay %v: losing thief %d still got (%v, %v)", delay, r, e, obj)
				}
			})
		}
		eng.Run(sim.Forever)
		if wins != 1 {
			t.Fatalf("delay %v: %d winners for 1 entry", delay, wins)
		}
		// Both chains were in flight at once at the small delays (each is at
		// least one 1000 ns get long), so each held a record of its own.
		if delay < 1000 && (d.steals == nil || d.steals.next == nil) {
			t.Fatalf("delay %v: two thieves in flight shared one steal record", delay)
		}
	}
}

// TestStealResultsOutliveTheRecord: the pooled chain record is reset between
// attempts, its results are not — a batch taken after a failed attempt comes
// back in slices the caller may keep across later steals on the same record.
func TestStealResultsOutliveTheRecord(t *testing.T) {
	eng, d := setup(2)
	d.Batch = true
	all := func(avail int64) int64 { return avail }
	eng.Go("owner", func(p *sim.Proc) {
		p.Sleep(5000) // let the first attempt find the deque empty
		for i := uint64(1); i <= 6; i++ {
			d.Push(p, mk(i), int(i))
			if i == 3 {
				p.Sleep(20000) // the second attempt takes 1..3, the third 4..6
			}
		}
	})
	eng.Go("thief", func(p *sim.Proc) {
		if e, o, ok := d.StealN(p, 1, all); ok || e != nil || o != nil {
			t.Fatalf("steal from an empty deque returned (%v, %v, %v)", e, o, ok)
		}
		p.Sleep(10000)
		e1, o1, ok1 := d.StealN(p, 1, all)
		p.Sleep(20000)
		e2, o2, ok2 := d.StealN(p, 1, all)
		if !ok1 || !ok2 || len(e1) != 3 || len(e2) != 3 {
			t.Fatalf("batches: ok %v/%v, %d and %d entries, want 3 and 3", ok1, ok2, len(e1), len(e2))
		}
		for i := 0; i < 3; i++ {
			if rd(e1[i]) != uint64(1+i) || o1[i] != 1+i || rd(e2[i]) != uint64(4+i) || o2[i] != 4+i {
				t.Errorf("entry %d: first batch (%d, %v), second (%d, %v)", i, rd(e1[i]), o1[i], rd(e2[i]), o2[i])
			}
		}
	})
	eng.Run(sim.Forever)
	if d.steals == nil || d.steals.next != nil {
		t.Error("three attempts in sequence did not reuse one record")
	}
}

// TestFailedStealAllocFree: the steal chain's state lives in a pooled record
// with its callbacks bound once, and its fabric ops in pooled records, so a
// warmed failed attempt (tracer nil) allocates nothing — entered through the
// blocking wrapper or, as the scheduler does, through the continuation form
// with a callback of the caller's bound once.
func TestFailedStealAllocFree(t *testing.T) {
	for _, via := range []entryPoint{blocking, continuation} {
		eng, d := setup(2)
		var avg float64
		eng.Go("thief", func(p *sim.Proc) {
			stolen := false
			then := func(_ [][]byte, _ []any, ok bool) { stolen = ok }
			attempt := func() {
				if via == blocking {
					_, _, stolen = d.StealN(p, 1, nil)
				} else {
					d.StealNThen(p, 1, nil, then)
					p.Await()
				}
				if stolen {
					t.Error("steal from an empty deque succeeded")
				}
			}
			for i := 0; i < 3; i++ {
				attempt()
			}
			avg = testing.AllocsPerRun(50, attempt)
		})
		eng.Run(sim.Forever)
		if avg != 0 {
			t.Errorf("continuation entry %v: a failed steal allocates %.1f times, want 0", via, avg)
		}
		if d.St.StealsEmpty != 54 {
			t.Errorf("continuation entry %v: StealsEmpty = %d, want 54", via, d.St.StealsEmpty)
		}
	}
}

func TestInterleavedOwnerAndThievesProperty(t *testing.T) {
	// Property: under any interleaving of owner pushes/pops and thief
	// steals, every pushed value is consumed exactly once, pops are LIFO-
	// consistent and steals FIFO-consistent.
	check := func(script []uint8) bool {
		eng, d := setup(3)
		consumed := make(map[uint64]int)
		pushed := 0
		eng.Go("owner", func(p *sim.Proc) {
			v := uint64(0)
			for _, op := range script {
				if op%2 == 0 {
					v++
					d.Push(p, mk(v), nil)
					pushed++
				} else if e, _, ok := d.Pop(p); ok {
					consumed[rd(e)]++
				}
				p.Sleep(sim.Time(op % 7 * 100))
			}
		})
		for r := 1; r <= 2; r++ {
			r := r
			eng.Go("thief", func(p *sim.Proc) {
				for i := 0; i < len(script); i++ {
					p.Sleep(sim.Time(r * 531))
					if e, _, ok := d.Steal(p, r); ok {
						consumed[rd(e)]++
					}
				}
			})
		}
		eng.Run(sim.Forever)
		// Drain the rest.
		eng2 := eng
		_ = eng2
		total := 0
		for v, n := range consumed {
			if n != 1 || v == 0 {
				return false
			}
			total++
		}
		return total+d.Len() == pushed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPushOverflowPanics: the push that finds the deque full fails the run,
// as the owner's proc. It finds out when it publishes, at the end of its
// charge, inside event dispatch (see PushThen), so the failure comes out of
// Run as a *sim.ProcPanic rather than through the owner's own frames.
func TestPushOverflowPanics(t *testing.T) {
	eng, d := setup(1)
	eng.Go("owner", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			d.Push(p, mk(uint64(i)), nil)
		}
		t.Error("300 pushes fit a deque of 256")
	})
	defer func() {
		pp, ok := recover().(*sim.ProcPanic)
		if !ok || pp.Proc != "owner" || !strings.Contains(fmt.Sprint(pp.Value), "queue overflow") {
			t.Errorf("recovered %v, want the owner's queue overflow", pp)
		}
	}()
	eng.Run(sim.Forever)
}

func TestWrongEntrySizePanics(t *testing.T) {
	eng, d := setup(1)
	eng.Go("owner", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("wrong entry size did not panic")
			}
		}()
		d.Push(p, make([]byte, es+1), nil)
	})
	eng.Run(sim.Forever)
}

func TestSlotReuseAfterWrap(t *testing.T) {
	// Push/pop far more entries than capacity; positions wrap the ring.
	eng, d := setup(1)
	eng.Go("owner", func(p *sim.Proc) {
		for i := uint64(0); i < 2000; i++ {
			d.Push(p, mk(i), nil)
			e, _, ok := d.Pop(p)
			if !ok || rd(e) != i {
				t.Fatalf("wrap iteration %d: got (%v,%v)", i, rd(e), ok)
			}
		}
	})
	eng.Run(sim.Forever)
}

func TestPushTopRunsLast(t *testing.T) {
	// A PushTop entry is behind all bottom-pushed work for the owner...
	eng, d := setup(1)
	eng.Go("owner", func(p *sim.Proc) {
		d.Push(p, mk(1), nil)
		d.Push(p, mk(2), nil)
		d.PushTop(p, mk(99), nil)
		var got []uint64
		for {
			e, _, ok := d.Pop(p)
			if !ok {
				break
			}
			got = append(got, rd(e))
		}
		want := []uint64{2, 1, 99}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pop order %v, want %v", got, want)
			}
		}
	})
	eng.Run(sim.Forever)
}

func TestPushTopStolenFirst(t *testing.T) {
	// ...and in front of everything for thieves.
	eng, d := setup(2)
	eng.Go("owner", func(p *sim.Proc) {
		d.Push(p, mk(1), nil)
		d.PushTop(p, mk(99), nil)
	})
	eng.GoAfter(10, "thief", func(p *sim.Proc) {
		e, _, ok := d.Steal(p, 1)
		if !ok || rd(e) != 99 {
			t.Errorf("thief got %v/%v, want the yielded entry 99", rd(e), ok)
		}
	})
	eng.Run(sim.Forever)
}

func TestPushTopNegativePositionsWrapCorrectly(t *testing.T) {
	// Repeated PushTop drives the top position negative; the ring indexing
	// must stay consistent.
	eng, d := setup(1)
	eng.Go("owner", func(p *sim.Proc) {
		for i := uint64(1); i <= 100; i++ {
			d.PushTop(p, mk(i), nil)
		}
		// FIFO end holds the most recent PushTop; owner pops the oldest.
		for want := uint64(1); want <= 100; want++ {
			e, _, ok := d.Pop(p)
			if !ok || rd(e) != want {
				t.Fatalf("pop got (%v,%v), want %d", rd(e), ok, want)
			}
		}
	})
	eng.Run(sim.Forever)
}

func TestMixedEndsProperty(t *testing.T) {
	// Random mixes of Push, PushTop, Pop and Steal never lose or duplicate
	// an entry.
	check := func(script []uint8) bool {
		eng, d := setup(2)
		consumed := map[uint64]int{}
		pushed := 0
		eng.Go("owner", func(p *sim.Proc) {
			v := uint64(0)
			for _, op := range script {
				switch op % 4 {
				case 0:
					v++
					d.Push(p, mk(v), nil)
					pushed++
				case 1:
					v++
					d.PushTop(p, mk(v), nil)
					pushed++
				default:
					if e, _, ok := d.Pop(p); ok {
						consumed[rd(e)]++
					}
				}
				p.Sleep(sim.Time(op%5) * 100)
			}
		})
		eng.Go("thief", func(p *sim.Proc) {
			for range script {
				p.Sleep(700)
				if e, _, ok := d.Steal(p, 1); ok {
					consumed[rd(e)]++
				}
			}
		})
		eng.Run(sim.Forever)
		total := 0
		for v, n := range consumed {
			if n != 1 || v == 0 {
				return false
			}
			total++
		}
		return total+d.Len() == pushed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStealIsStealNTakeOne: Steal is StealN taking one entry through the same
// chain. On identical deques and an identical program that takes every exit
// of the protocol (success, fast empty, lock contended, empty on recheck)
// both emit the same phase-span sequence, return the same entries and move
// the same counters, except that only StealN with a take function books a
// batch.
func TestStealIsStealNTakeOne(t *testing.T) {
	type stealFn func(d *Deque, p *sim.Proc, thief int) ([]byte, any, bool)
	run := func(steal stealFn) ([]obs.Event, []uint64, Stats) {
		eng, d := setup(4)
		rec := obs.NewRecorder()
		d.Tr = rec
		var got []uint64
		thief := func(rank, attempts int) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				for i := 0; i < attempts; i++ {
					if e, obj, ok := steal(d, p, rank); ok {
						if obj.(int) != int(rd(e)) {
							t.Errorf("entry %d came with obj %v", rd(e), obj)
						}
						got = append(got, rd(e))
					}
				}
			}
		}
		eng.Go("owner", func(p *sim.Proc) {
			for i := uint64(1); i <= 3; i++ {
				d.Push(p, mk(i), int(i))
			}
			// One more entry, popped back between a thief's header read
			// (t=101500) and its lock CAS (t=102500): empty on recheck.
			p.Sleep(100000 - p.Now())
			d.Push(p, mk(4), 4)
			p.Sleep(2000)
			if _, _, ok := d.Pop(p); !ok {
				t.Error("owner lost entry 4")
			}
		})
		eng.GoAfter(10, "thief1", thief(1, 6))  // successes, then fast empty
		eng.GoAfter(510, "thief2", thief(2, 6)) // contended while thief1 holds the lock
		eng.GoAfter(100500, "thief3", thief(3, 1))
		eng.Run(sim.Forever)
		return rec.Events(), got, d.St
	}
	oneEv, oneGot, oneSt := run(func(d *Deque, p *sim.Proc, thief int) ([]byte, any, bool) {
		return d.Steal(p, thief)
	})
	nEv, nGot, nSt := run(func(d *Deque, p *sim.Proc, thief int) ([]byte, any, bool) {
		es, objs, ok := d.StealN(p, thief, func(int64) int64 { return 1 })
		if !ok {
			return nil, nil, false
		}
		if len(es) != 1 || len(objs) != 1 {
			t.Fatalf("StealN(take 1) returned %d entries, %d objs", len(es), len(objs))
		}
		return es[0], objs[0], true
	})
	if !reflect.DeepEqual(oneEv, nEv) {
		t.Errorf("phase spans differ:\nSteal:  %+v\nStealN: %+v", oneEv, nEv)
	}
	if !reflect.DeepEqual(oneGot, nGot) || len(oneGot) != 3 {
		t.Errorf("stolen entries: Steal %v, StealN %v, want the same three", oneGot, nGot)
	}
	kinds := map[obs.Kind]int{}
	for _, e := range oneEv {
		kinds[e.Kind]++
	}
	if oneSt.StealsContended == 0 || oneSt.StealsEmpty < 2 || kinds[obs.KindDequeRecheck] != kinds[obs.KindDequeRead]+1 {
		t.Errorf("stats %+v, spans %v: want every exit of the protocol taken", oneSt, kinds)
	}
	if oneSt.BatchSteals != 0 || oneSt.BatchEntries != 0 {
		t.Errorf("Steal booked a batch: %+v", oneSt)
	}
	if nSt.BatchSteals != 3 || nSt.BatchEntries != 3 {
		t.Errorf("StealN batches = %d/%d entries, want 3/3", nSt.BatchSteals, nSt.BatchEntries)
	}
	nSt.BatchSteals, nSt.BatchEntries = 0, 0
	if oneSt != nSt {
		t.Errorf("other counters differ: Steal %+v, StealN %+v", oneSt, nSt)
	}
}
