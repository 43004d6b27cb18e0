package deque

import (
	"fmt"
	"math/rand"
	"testing"

	"contsteal/internal/allocs"
	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// TestPayloadRingModel drives the payload ring through every length from
// minObjs to capacity — a power of two and not — with the owner pushing,
// popping and yielding (PushTop) while three thieves keep StealN chains in
// flight, Batch off (one entry a chain) and on (up to eight). A reference
// model of the unclaimed live payloads, updated where each operation takes
// effect — a push or pop as it returns to the owner, a steal when its take
// function runs under the lock — names the taker of every payload: each one
// is taken exactly once, by that taker. The owner makes every growing push
// while some chain holds a claim it has not yet advanced top past, so each
// growth moves payloads a thief is about to take. Overflow at capacity still
// panics with the same message.
func TestPayloadRingModel(t *testing.T) {
	for _, capacity := range []int{256, 200} {
		for _, batch := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cap%d/batch=%v/seed%d", capacity, batch, seed), func(t *testing.T) {
					checkRingModel(t, capacity, batch, seed)
				})
			}
		}
	}
}

func checkRingModel(t *testing.T, capacity int, batch bool, seed int64) {
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, topo.Uniform(1000), 4, 1<<16)
	d := New(fab, 0, capacity, es)
	d.Batch = batch
	rng := rand.New(rand.NewSource(seed))

	const owner = 0
	var (
		model    []uint64           // unclaimed live payloads, top first
		want     = map[uint64]int{} // the taker the model names
		got      = map[uint64]int{} // the taker that received the payload
		lengths  = map[int]bool{}   // payload ring lengths seen
		spanned  = map[int]bool{}   // ring lengths a chain's claim was carried into
		claims   int                // chains between their claim and their return
		pushed   uint64
		done     bool
		maxSteal = 1
	)
	if batch {
		maxSteal = 8
	}
	receive := func(id uint64, entry []byte, obj any, taker int) {
		if obj != id || rd(entry) != id {
			t.Fatalf("taker %d received entry %d with payload %v, want %d", taker, rd(entry), obj, id)
		}
		if prev, dup := got[id]; dup {
			t.Fatalf("payload %d taken twice: by %d, then by %d", id, prev, taker)
		}
		got[id] = taker
	}

	eng.Go("owner", func(p *sim.Proc) {
		push := func(top bool) {
			if n := len(d.objs); n > 0 && d.Len() == n {
				// This push grows the ring: make it while a chain holds a
				// claim it has not yet advanced top past.
				for claims == 0 {
					p.Sleep(100)
				}
			}
			id := pushed
			pushed++
			if top {
				d.PushTop(p, mk(id), id)
				model = append([]uint64{id}, model...)
			} else {
				d.Push(p, mk(id), id)
				model = append(model, id)
			}
			lengths[len(d.objs)] = true
		}
		pop := func() {
			entry, obj, ok := d.Pop(p)
			if len(model) == 0 {
				if ok {
					t.Fatalf("pop took %v from a deque the model holds empty", obj)
				}
				return
			}
			id := model[len(model)-1]
			if !ok {
				t.Fatalf("pop missed; the model holds %d payloads, %d at the bottom", len(model), id)
			}
			model = model[:len(model)-1]
			want[id] = owner
			receive(id, entry, obj, owner)
		}
		for cycle := 0; cycle < 2; cycle++ {
			// Fill to capacity against the thieves, then drain.
			for d.Len() < capacity {
				switch r := rng.Intn(20); {
				case r < 15:
					push(false)
				case r < 17:
					push(true)
				default:
					pop()
				}
				p.Sleep(sim.Time(rng.Intn(200)))
			}
			for len(model) > 0 {
				if rng.Intn(10) == 0 && d.Len() < capacity {
					push(false)
				} else {
					pop()
				}
				p.Sleep(sim.Time(rng.Intn(400)))
			}
		}
		done = true
	})
	for thief := 1; thief <= 3; thief++ {
		eng.Go("thief", func(p *sim.Proc) {
			var claim []uint64
			var ringAtClaim int
			take := func(avail int64) int64 {
				if avail != int64(len(model)) {
					t.Fatalf("thief %d rechecked %d entries; the model holds %d", thief, avail, len(model))
				}
				k := 1 + rng.Intn(int(min(avail, int64(maxSteal))))
				claim = append(claim[:0], model[:k]...)
				model = model[k:]
				for _, id := range claim {
					want[id] = thief
				}
				ringAtClaim = len(d.objs)
				claims++
				return int64(k)
			}
			for !done {
				p.Sleep(sim.Time(rng.Intn(3000)))
				claim = claim[:0]
				entries, objs, ok := d.StealN(p, thief, take)
				if !ok {
					if len(claim) > 0 {
						t.Fatalf("thief %d claimed %v and came back empty-handed", thief, claim)
					}
					continue
				}
				claims--
				if len(objs) != len(claim) || len(entries) != len(claim) {
					t.Fatalf("thief %d claimed %v and received %v", thief, claim, objs)
				}
				for i, id := range claim {
					receive(id, entries[i], objs[i], thief)
				}
				if n := len(d.objs); n != ringAtClaim {
					spanned[n] = true
				}
			}
		})
	}
	eng.Run(sim.Forever)

	if len(got) != int(pushed) || len(want) != int(pushed) {
		t.Fatalf("%d payloads pushed, %d taken, %d named by the model", pushed, len(got), len(want))
	}
	stolen := 0
	for id, taker := range got {
		if want[id] != taker {
			t.Errorf("payload %d taken by %d; the model names %d", id, taker, want[id])
		}
		if taker != owner {
			stolen++
		}
	}
	for n := minObjs; ; n = min(2*n, capacity) {
		if !lengths[n] {
			t.Errorf("the payload ring never had length %d", n)
		}
		if n > minObjs && !spanned[n] {
			t.Errorf("no steal chain held its claim across the growth to %d", n)
		}
		if n == capacity {
			break
		}
	}
	if len(d.objs) != capacity {
		t.Errorf("payload ring ends at length %d, want capacity %d", len(d.objs), capacity)
	}
	if stolen == 0 || stolen == len(got) {
		t.Errorf("%d of %d payloads stolen: want both takers at work", stolen, len(got))
	}
	t.Logf("%d payloads, %d stolen", len(got), stolen)

	// Full again, one more of either kind of push overflows: PushTop in the
	// owner's frames, Push when it publishes, inside event dispatch, which
	// fails the run as the owner (see PushThen).
	msg := fmt.Sprintf("deque: rank 0 queue overflow (cap %d)", capacity)
	eng.Go("owner", func(p *sim.Proc) {
		for d.Len() < capacity {
			d.Push(p, mk(0), nil)
		}
		func() {
			defer func() {
				if r := recover(); r != msg {
					t.Errorf("push at the top at capacity: recovered %v, want %q", r, msg)
				}
			}()
			d.PushTop(p, mk(0), nil)
		}()
		d.Push(p, mk(0), nil)
		t.Error("a push at capacity returned")
	})
	defer func() {
		if pp, ok := recover().(*sim.ProcPanic); !ok || pp.Proc != "owner" || pp.Value != msg {
			t.Errorf("push at the bottom at capacity: Run raised %v, want the owner's %q", pp, msg)
		}
	}()
	eng.Run(sim.Forever)
}

// TestPopAllocFree: a pop copies its entry into the deque's one pop buffer,
// and the payload ring, once grown, stays, so warm push → pops allocate
// nothing, 0 mallocs in all over 50 — through the blocking Pop or, as the
// scheduler pops, through PopThen with a callback bound once.
func TestPopAllocFree(t *testing.T) {
	for _, via := range []entryPoint{blocking, continuation} {
		eng, d := setup(1)
		entry, payload := mk(7), new(int)
		var m uint64
		eng.Go("owner", func(p *sim.Proc) {
			var obj any
			popped := func(e []byte, o any, ok bool) { obj = o }
			cycle := func() {
				d.Push(p, entry, payload)
				if via == blocking {
					_, obj, _ = d.Pop(p)
				} else {
					d.PopThen(p, popped)
					p.Await()
				}
				if obj != payload {
					t.Fatalf("popped %v, want the pushed payload", obj)
				}
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			m = allocs.Count(50, cycle)
		})
		eng.Run(sim.Forever)
		if m != 0 {
			t.Errorf("continuation entry %v: 50 push → pops allocated %d times, want 0", via, m)
		}
	}
}
