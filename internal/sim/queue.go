package sim

// eventQueue is the engine's priority queue of events, ordered by (time,
// seq). A simulation's traffic runs on a few fixed latencies, and the events
// scheduled with one delay d = t − now already arrive in (time, seq) order:
// now never decreases and seq strictly increases. So a recurring delay gets a
// lane, a FIFO ring, and the queue orders only the lanes' heads, in a small
// heap, rather than every pending event. The overflow heap takes the events a
// lane cannot hold in order or that have no lane:
//
//   - AtEach timers, whose sequence numbers were reserved earlier;
//   - a delay's event whose slot is another delay's, or no delay's: a delay
//     claims an empty slot at its second event in a row there, so one-off
//     delays (a serialized subtree's compute time) stay out of the lanes;
//   - a delay's event whose slot holds another delay's events.
//
// pop takes the earlier of the lane-head heap's top and the overflow's, so the
// queue dispatches in exactly the order of one heap over all its events.
type eventQueue struct {
	lanes [laneCount]lane
	heads []laneHead // min-heap of the non-empty lanes, keyed by their oldest events
	over  eventHeap
}

// laneCount lanes are direct-mapped by delay (see laneOf).
const (
	laneBits  = 6
	laneCount = 1 << laneBits
)

// laneOf is the slot of delay d: a Fibonacci hash of it.
func laneOf(d Time) int { return int(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneBits)) }

// lane is a FIFO ring of events that share one delay.
type lane struct {
	key  Time    // the delay that owns the lane, plus one; 0 for none
	seen Time    // the last delay, plus one, whose event found the lane not its own
	buf  []event // the ring; its length is a power of two, or 0
	head int     // index of the oldest event
	n    int
}

// laneHead is a non-empty lane's oldest (time, seq), stored inline so the
// head heap compares without touching the rings.
type laneHead struct {
	t    Time
	seq  uint64
	lane int
}

func (a *laneHead) before(b *laneHead) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// push queues ev, scheduled d after now.
func (q *eventQueue) push(d Time, ev event) {
	i := laneOf(d)
	l := &q.lanes[i]
	if k := d + 1; l.key != k {
		if l.n != 0 || l.seen != k {
			l.seen = k
			q.over.push(ev)
			return
		}
		l.key = k
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	if l.n++; l.n == 1 {
		q.pushHead(laneHead{t: ev.t, seq: ev.seq, lane: i})
	}
}

// grow doubles the ring, unwrapping it.
func (l *lane) grow() {
	buf := make([]event, max(8, 2*len(l.buf)))
	n := copy(buf, l.buf[l.head:])
	copy(buf[n:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes and returns the earliest event, if it is due at or before until
// (at any time for a negative until); ok is false, and nothing is removed,
// otherwise.
func (q *eventQueue) pop(until Time) (ev event, ok bool) {
	if len(q.heads) == 0 {
		if len(q.over) == 0 || until >= 0 && q.over[0].t > until {
			return event{}, false
		}
		return q.over.pop(), true
	}
	h := &q.heads[0]
	if len(q.over) != 0 && (q.over[0].t < h.t || q.over[0].t == h.t && q.over[0].seq < h.seq) {
		if until >= 0 && q.over[0].t > until {
			return event{}, false
		}
		return q.over.pop(), true
	}
	if until >= 0 && h.t > until {
		return event{}, false
	}
	l := &q.lanes[h.lane]
	ev = l.buf[l.head]
	l.buf[l.head] = event{} // release references
	l.head = (l.head + 1) & (len(l.buf) - 1)
	if l.n--; l.n != 0 {
		next := &l.buf[l.head]
		q.siftHead(laneHead{t: next.t, seq: next.seq, lane: h.lane})
	} else {
		last := q.heads[len(q.heads)-1]
		q.heads = q.heads[:len(q.heads)-1]
		if len(q.heads) != 0 {
			q.siftHead(last)
		}
	}
	return ev, true
}

// empty reports whether no event is queued.
func (q *eventQueue) empty() bool { return len(q.heads) == 0 && len(q.over) == 0 }

// len returns the number of queued events.
func (q *eventQueue) len() int {
	n := len(q.over)
	for _, h := range q.heads {
		n += q.lanes[h.lane].n
	}
	return n
}

func (q *eventQueue) pushHead(x laneHead) {
	s := append(q.heads, x)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
	q.heads = s
}

// siftHead puts x in place of the head heap's root.
func (q *eventQueue) siftHead(x laneHead) {
	s := q.heads
	n := len(s)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&x) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = x
}
