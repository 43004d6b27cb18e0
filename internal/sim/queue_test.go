package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"contsteal/internal/allocs"
)

// stamp is an event's place in dispatch order.
type stamp struct {
	t   Time
	seq uint64
}

// queueProgram drives an engine from a byte string: each byte is one
// scheduling step, made at top level or by a callback as it fires, so events
// are scheduled at many different clock readings. It records the (time, seq)
// of every event it schedules, by id, and the ids in the order they fire.
type queueProgram struct {
	e     *Engine
	prog  []byte
	uniq  Time // one-off delays handed out so far
	sched []stamp
	fired []int
	late  []string // events that fired at a time other than their own
}

// recurring are the delays most steps use: 8 of them, more than one lane's
// worth of traffic each, as a simulation's fixed latencies are.
var recurring = [...]Time{1, 3, 10, 25, 100, 110, 801, 4013}

func (q *queueProgram) next() (byte, bool) {
	if len(q.prog) == 0 {
		return 0, false
	}
	b := q.prog[0]
	q.prog = q.prog[1:]
	return b, true
}

// step schedules what b says: an event at a recurring delay, at delay 0, at
// a delay no other event has (a program of more than 64 of them collides in
// every slot), at one of 52 occasional delays (which claim empty slots and
// lose them again), or an AtEach batch of one to four timers.
func (q *queueProgram) step(b byte) {
	switch b % 5 {
	case 0:
		q.after(recurring[int(b/5)%len(recurring)])
	case 1:
		q.after(0)
	case 2:
		q.uniq++
		q.after(5000 + 37*q.uniq)
	case 3:
		q.after(200 + Time(b/5))
	case 4:
		q.atEach(int(b/5)%4 + 1)
	}
}

func (q *queueProgram) after(d Time) {
	id := len(q.sched)
	q.sched = append(q.sched, stamp{q.e.Now() + d, 0})
	q.e.After(d, func() { q.fire(id) })
	q.sched[id].seq = q.e.seq
}

func (q *queueProgram) atEach(n int) {
	base, ts := len(q.sched), make([]Time, n)
	t := q.e.Now()
	for i := range ts {
		b, _ := q.next()
		t += Time(b % 16)
		ts[i] = t
		q.sched = append(q.sched, stamp{t, q.e.seq + 1 + uint64(i)})
	}
	q.e.AtEach(ts, func(i int) { q.fire(base + i) })
}

// fire records event id and lets it schedule zero to two more.
func (q *queueProgram) fire(id int) {
	if q.e.Now() != q.sched[id].t {
		q.late = append(q.late, fmt.Sprintf("event %d (t=%d) fired at %d", id, q.sched[id].t, q.e.Now()))
	}
	q.fired = append(q.fired, id)
	b, _ := q.next()
	for range int(b % 3) {
		if c, ok := q.next(); ok {
			q.step(c)
		}
	}
}

// runQueueProgram runs prog — top-level bytes that are either a scheduling
// step or, one in eight, a Run(until) window up to 1,020 ns long — then runs
// the engine dry, and fails unless every event fired once, at its own time,
// in the order of a stable sort of the scheduled events by time.
func runQueueProgram(t *testing.T, prog []byte) {
	t.Helper()
	e := NewEngine()
	q := &queueProgram{e: e, prog: prog}
	for {
		b, ok := q.next()
		if !ok {
			break
		}
		if b%8 == 7 {
			w, _ := q.next()
			e.Run(e.Now() + 4*Time(w))
			continue
		}
		q.step(b)
	}
	e.Run(Forever)
	if len(q.late) != 0 {
		t.Fatalf("%d events fired late, first %s", len(q.late), q.late[0])
	}
	if e.Pending() != 0 || len(q.fired) != len(q.sched) {
		t.Fatalf("%d of %d events fired, %d still pending", len(q.fired), len(q.sched), e.Pending())
	}
	want := slices.Clone(q.sched)
	slices.SortFunc(want, func(a, b stamp) int { return cmp.Compare(a.seq, b.seq) })
	slices.SortStableFunc(want, func(a, b stamp) int { return cmp.Compare(a.t, b.t) })
	for i, id := range q.fired {
		if got := q.sched[id]; got != want[i] {
			t.Fatalf("dispatch %d of %d is (t=%d, seq=%d), want (t=%d, seq=%d)",
				i, len(q.fired), got.t, got.seq, want[i].t, want[i].seq)
		}
	}
}

// TestEventQueueMatchesStableSort is the event queue's differential test:
// random programs that mix recurring, zero, one-off and occasional delays,
// AtEach batches and Run(until) windows dispatch exactly in (time, seq)
// order — the order one heap over all events gives.
func TestEventQueueMatchesStableSort(t *testing.T) {
	for seed := range int64(200) {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 200+rng.Intn(3000))
		rng.Read(prog)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runQueueProgram(t, prog) })
	}
}

// FuzzEventQueue searches for a program whose dispatch order is not (time,
// seq) order; `go test` runs its seed corpus.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 10, 15, 20, 25, 30, 35, 7, 9, 0, 5, 10, 15, 7, 255})
	f.Add([]byte{4, 3, 0, 0, 1, 1, 2, 4, 9, 5, 5, 5, 7, 0, 4, 2, 2, 2, 2})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 3, 8, 13, 3, 8, 13, 7, 50, 2, 2, 3, 3})
	for seed := range int64(4) {
		prog := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runQueueProgram)
}

// TestRunRefusesToRewindTheClock: a horizon before Now() panics, naming both
// times, and leaves the clock and the queue as they were.
func TestRunRefusesToRewindTheClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(120, func() { fired = append(fired, e.Now()) })
	e.Run(100)
	func() {
		defer func() {
			const want = "sim: Run until 50ns is in the past (now 100ns)"
			if r := recover(); r != want {
				t.Errorf("Run(50) at 100 panicked with %v, want %q", r, want)
			}
		}()
		e.Run(50)
	}()
	if e.Now() != 100 || e.Pending() != 1 {
		t.Errorf("after the refused Run: Now() = %v with %d pending, want 100 and 1", e.Now(), e.Pending())
	}
	e.Run(100) // a horizon at the clock is no rewind
	e.After(10, func() { fired = append(fired, e.Now()) })
	e.Run(Forever)
	if !slices.Equal(fired, []Time{110, 120}) {
		t.Errorf("fired at %v, want [110 120]", fired)
	}
}

// TestEventLanesAllocFree: once its lanes have grown, a steady state that
// cycles a proc's sleeps and its callbacks through eight recurring delays
// allocates nothing, over all runs.
func TestEventLanesAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	cb := func() {}
	e.GoID("w", 0, func(p *Proc) {
		for i := 0; ; i++ {
			d := recurring[i%len(recurring)]
			e.After(d, cb)
			e.After(recurring[(i+3)%len(recurring)], cb)
			p.Sleep(d)
		}
	})
	e.Run(20_000)
	if m := allocs.Count(50, func() { e.Run(e.Now() + 10_000) }); m != 0 {
		t.Errorf("50 windows over %d recurring delays allocated %d times, want 0", len(recurring), m)
	}
	for _, d := range recurring {
		if l := &e.queue.lanes[laneOf(d)]; l.key != d+1 {
			t.Errorf("delay %d has no lane (its slot holds delay %d)", d, l.key-1)
		}
	}
	if n := len(e.queue.over); n != 0 {
		t.Errorf("%d events in the overflow heap, want every one in a lane", n)
	}
}
