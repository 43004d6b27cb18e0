package deque

import (
	"testing"

	"contsteal/internal/rdma"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// FuzzDequePushPopSteal drives arbitrary interleavings of Push, Pop,
// PushTop, Steal and StealN through the THE protocol in two phases:
//
//  1. an exact-model phase — one driver proc interprets the script and
//     checks every operation's result against a reference slice model
//     (bottom = slice end, top/steal end = slice front);
//  2. a concurrency phase — the same script dispatched across an owner
//     proc and two thief procs with script-derived virtual-time offsets,
//     checking the global conservation invariant (every pushed value is
//     consumed exactly once, nothing is invented).
//
// The seed corpus encodes the interleavings the runtime's scheduler
// actually generates (see the op table below for the byte encoding).
func FuzzDequePushPopSteal(f *testing.F) {
	// Op encoding: per byte b, b%5 selects the operation
	//	0 = Push (bottom), 1 = Pop (bottom), 2 = Steal (top),
	//	3 = PushTop, 4 = StealN taking the top half
	// and b/5 spaces the concurrency phase (virtual-time gap between ops).
	// Any script containing a StealN op runs the deque in Batch mode, as
	// internal/core does for the steal-half policies (the owner serializes
	// pops through the lock; see Deque.Batch).
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1})             // serial spawn/pop (no thief traffic)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}) // deep spawn then unwind (LIFO run)
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2, 2})             // idle thieves drain a full deque
	f.Add([]byte{0, 0, 2, 1, 0, 2, 1, 2})             // steals racing the working owner
	f.Add([]byte{2, 2, 2, 2})                         // failed steals on an empty deque
	f.Add([]byte{0, 1, 2, 0, 2, 1})                   // THE last-entry race, both orders
	f.Add([]byte{0, 3, 1, 2, 0, 3, 2, 1})             // Yield: PushTop feeds thieves first
	f.Add([]byte{0, 64, 65, 128, 2, 192, 1, 6})       // wide time gaps between ops
	f.Add([]byte{0, 0, 0, 0, 4, 4, 4})                // batch halves drain the deque
	f.Add([]byte{0, 0, 0, 0, 0, 4, 1, 4, 2, 1})       // batch thief racing the working owner
	f.Add([]byte{4, 4, 0, 4, 1})                      // failed batch steals on an empty deque
	f.Add([]byte{0, 4, 0, 0, 3, 4, 2, 1, 4})          // batches interleaved with PushTop/Steal
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 200 {
			script = script[:200]
		}
		// Both ways in: the blocking wrappers and the continuation forms they
		// wrap must be the same protocol, to the tick and to the counter.
		st, end := fuzzExactModel(t, script, blocking)
		if cst, cend := fuzzExactModel(t, script, continuation); cst != st || cend != end {
			t.Fatalf("exact model: continuation entry ends at %v with %+v, blocking wrappers at %v with %+v", cend, cst, end, st)
		}
		st, end = fuzzConcurrent(t, script, blocking)
		if cst, cend := fuzzConcurrent(t, script, continuation); cst != st || cend != end {
			t.Fatalf("concurrent: continuation entry ends at %v with %+v, blocking wrappers at %v with %+v", cend, cst, end, st)
		}
	})
}

// entryPoint is how a test reaches the owner pop and the steal chain: through
// the blocking wrappers (Pop, Steal, StealN) or through the continuation
// forms (PopThen, StealNThen) followed by the caller's own Await.
type entryPoint bool

const (
	blocking     entryPoint = false
	continuation entryPoint = true
)

func (via entryPoint) pop(d *Deque, p *sim.Proc) (entry []byte, obj any, ok bool) {
	if via == blocking {
		return d.Pop(p)
	}
	d.PopThen(p, func(e []byte, o any, k bool) { entry, obj, ok = e, o, k })
	p.Await()
	return entry, obj, ok
}

func (via entryPoint) stealN(d *Deque, p *sim.Proc, thief int, take func(int64) int64) (entries [][]byte, objs []any, ok bool) {
	if via == blocking {
		return d.StealN(p, thief, take)
	}
	d.StealNThen(p, thief, take, func(e [][]byte, o []any, k bool) { entries, objs, ok = e, o, k })
	p.Await()
	return entries, objs, ok
}

func (via entryPoint) steal(d *Deque, p *sim.Proc, thief int) ([]byte, any, bool) {
	if via == blocking {
		return d.Steal(p, thief)
	}
	entries, objs, ok := via.stealN(d, p, thief, nil)
	if !ok {
		return nil, nil, false
	}
	return entries[0], objs[0], true
}

const fuzzCap = 64 // small capacity so ring wrap-around is exercised

func fuzzSetup(script []byte) (*sim.Engine, *Deque) {
	eng := sim.NewEngine()
	fab := rdma.NewFabric(eng, topo.Uniform(1000), 3, 1<<16)
	d := New(fab, 0, fuzzCap, es)
	// StealN is only conservation-safe when the owner serializes pops
	// through the lock, exactly as core.New couples Batch to StealHalf.
	for _, op := range script {
		if op%5 == 4 {
			d.Batch = true
		}
	}
	return eng, d
}

// stealHalf mirrors the core scheduler's steal-half amount policy.
func stealHalf(avail int64) int64 { return (avail + 1) / 2 }

// fuzzExactModel interprets the script on a single proc and compares every
// result against the reference slice model. It returns the deque's counters
// and the virtual time the script took.
func fuzzExactModel(t *testing.T, script []byte, via entryPoint) (Stats, sim.Time) {
	eng, d := fuzzSetup(script)
	var model []uint64 // model[0] is the top (steal end), model[len-1] the bottom
	next := uint64(0)
	eng.Go("driver", func(p *sim.Proc) {
		for i, op := range script {
			switch op % 5 {
			case 0: // Push at the bottom
				if len(model) >= fuzzCap {
					continue // would overflow by design; overflow panics are tested elsewhere
				}
				next++
				d.Push(p, mk(next), nil)
				model = append(model, next)
			case 1: // Pop from the bottom (LIFO)
				e, _, ok := via.pop(d, p)
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: Pop ok=%v with model size %d", i, ok, len(model))
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if rd(e) != want {
						t.Fatalf("op %d: Pop = %d, model says %d", i, rd(e), want)
					}
				}
			case 2: // Steal from the top (FIFO)
				e, _, ok := via.steal(d, p, 1)
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: Steal ok=%v with model size %d", i, ok, len(model))
				}
				if ok {
					want := model[0]
					model = model[1:]
					if rd(e) != want {
						t.Fatalf("op %d: Steal = %d, model says %d", i, rd(e), want)
					}
				}
			case 3: // PushTop at the steal end
				if len(model) >= fuzzCap {
					continue
				}
				next++
				d.PushTop(p, mk(next), nil)
				model = append([]uint64{next}, model...)
			case 4: // StealN: take the top half in one locked chain
				entries, _, ok := via.stealN(d, p, 1, stealHalf)
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: StealN ok=%v with model size %d", i, ok, len(model))
				}
				if ok {
					k := (len(model) + 1) / 2
					if len(entries) != k {
						t.Fatalf("op %d: StealN took %d entries, model says half = %d of %d",
							i, len(entries), k, len(model))
					}
					for idx, e := range entries {
						if rd(e) != model[idx] {
							t.Fatalf("op %d: StealN entry %d = %d, model says %d (oldest-first order)",
								i, idx, rd(e), model[idx])
						}
					}
					model = model[k:]
				}
			}
			if d.Len() != len(model) {
				t.Fatalf("op %d: Len() = %d, model size %d", i, d.Len(), len(model))
			}
		}
	})
	return d.St, eng.Run(sim.Forever)
}

// fuzzConcurrent replays the script's owner ops against two concurrently
// stealing thieves and checks conservation: every pushed value is consumed
// exactly once (by owner or thief) or still queued at the end. When the
// script contains StealN ops, thief 1 steals half-batches instead of single
// entries (and the deque runs in Batch mode) — the concurrent form of the
// steal-half policy.
func fuzzConcurrent(t *testing.T, script []byte, via entryPoint) (Stats, sim.Time) {
	eng, d := fuzzSetup(script)
	consumed := make(map[uint64]int)
	pushed := 0
	eng.Go("owner", func(p *sim.Proc) {
		v := uint64(0)
		for _, op := range script {
			switch op % 5 {
			case 0, 3:
				if d.Len() >= fuzzCap-1 {
					continue
				}
				v++
				pushed++
				if op%5 == 0 {
					d.Push(p, mk(v), nil)
				} else {
					d.PushTop(p, mk(v), nil)
				}
			default:
				if e, _, ok := via.pop(d, p); ok {
					consumed[rd(e)]++
				}
			}
			p.Sleep(sim.Time(op/5) * 25)
		}
	})
	for r := 1; r <= 2; r++ {
		r := r
		gap := sim.Time(300 + 431*r)
		eng.GoAfter(sim.Time(r), "thief", func(p *sim.Proc) {
			for range script {
				p.Sleep(gap)
				if r == 1 && d.Batch {
					entries, _, ok := via.stealN(d, p, r, stealHalf)
					if ok {
						for _, e := range entries {
							consumed[rd(e)]++
						}
					}
					continue
				}
				if e, _, ok := via.steal(d, p, r); ok {
					consumed[rd(e)]++
				}
			}
		})
	}
	end := eng.Run(sim.Forever)
	for v, n := range consumed {
		if n != 1 {
			t.Fatalf("value %d consumed %d times", v, n)
		}
		if v == 0 || v > uint64(pushed) {
			t.Fatalf("consumed value %d was never pushed", v)
		}
	}
	if got := len(consumed) + d.Len(); got != pushed {
		t.Fatalf("conservation: consumed %d + queued %d != pushed %d", len(consumed), d.Len(), pushed)
	}
	return d.St, end
}
