// Package msg provides a two-sided (message-based) communication layer over
// the discrete-event engine, used by the two-sided baseline runtime that the
// paper compares against (Charm++-like message-driven stealing, X10/GLB-like
// with its lifeline stage; see internal/bot).
//
// Unlike the one-sided fabric, a message requires the *receiver's*
// cooperation: it sits in the destination mailbox until the receiving
// worker polls, which is exactly the structural disadvantage of two-sided
// work stealing that §I and §V-C discuss ("frequent interruptions to the
// victim processors").
package msg

import (
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// SoftwareOverhead is the per-message software cost (matching engine,
// handler dispatch) added on top of the wire latency, charged to the
// receiver when it handles the message.
const SoftwareOverhead = 800 * sim.Nanosecond

// InjectCost is the sender-side cost of posting a message.
const InjectCost = 300 * sim.Nanosecond

// Retransmission parameters, used only when the machine's Perturb model
// injects message drops. A lost delivery attempt is detected by an ack
// timeout and retransmitted; the timeout starts at RetransBase and doubles
// per attempt up to RetransMax (bounded exponential backoff). The sender
// proc is never re-involved — loss recovery runs entirely on engine
// callbacks, as a NIC/progress-thread would.
const (
	RetransBase = 20 * sim.Microsecond
	RetransMax  = 320 * sim.Microsecond
)

// Msg is one application message.
type Msg struct {
	From int
	Kind int
	A, B int64  // small scalar payload
	Data []byte // optional bulk payload (counted in wire size)
}

// Stats counts message-layer events per rank.
type Stats struct {
	Sent, Received uint64
	BytesSent      uint64
	// Dropped counts delivery attempts lost in flight (fault injection);
	// Retransmits counts the recovery resends. Every drop triggers exactly
	// one retransmit, and every sent message is eventually received exactly
	// once, so Received totals are unaffected by drops.
	Dropped, Retransmits uint64
}

// Net is a simulated two-sided network between P ranks.
type Net struct {
	Eng   *sim.Engine
	Mach  *topo.Machine
	boxes [][]Msg
	st    []Stats
}

// New creates a network with nranks mailboxes.
func New(eng *sim.Engine, mach *topo.Machine, nranks int) *Net {
	return &Net{
		Eng:   eng,
		Mach:  mach,
		boxes: make([][]Msg, nranks),
		st:    make([]Stats, nranks),
	}
}

// Send posts m from rank `from` to rank `to`. The sender pays only the
// injection cost (eager send); the message lands in the destination
// mailbox after the wire latency. Under fault injection a delivery attempt
// may be dropped; loss recovery (timeout + retransmit, see deliver) is
// transparent to the sender, which still pays only InjectCost.
func (n *Net) Send(p *sim.Proc, from, to int, m Msg) {
	m.From = from
	size := 16 + len(m.Data)
	n.st[from].Sent++
	n.st[from].BytesSent += uint64(size)
	n.deliver(from, to, size, m, RetransBase)
	p.Sleep(InjectCost)
}

// deliver models one delivery attempt of m on the wire. A non-dropped
// attempt appends to the destination mailbox after the (possibly jittered)
// wire latency. A dropped attempt is detected by ack timeout rto and
// retransmitted — each retry re-draws its own wire delay and drop verdict
// from the link's seeded streams, with the timeout doubling up to
// RetransMax. The recursion runs on engine callbacks at increasing virtual
// times, so a message survives any drop sequence short of probability-1
// loss and is delivered exactly once.
func (n *Net) deliver(from, to, size int, m Msg, rto sim.Time) {
	if n.Mach.DropMsg(from, to) {
		n.st[from].Dropped++
		n.Eng.After(rto, func() {
			n.st[from].Retransmits++
			next := rto * 2
			if next > RetransMax {
				next = RetransMax
			}
			n.deliver(from, to, size, m, next)
		})
		return
	}
	delay, _ := n.Mach.OpDelay(from, to, size, false)
	n.Eng.After(delay, func() {
		n.boxes[to] = append(n.boxes[to], m)
	})
}

// Poll removes and returns the oldest pending message for rank, charging
// the receive-side software overhead. The mailbox pop happens at issue time,
// so a message arriving during the overhead window is not observed by this
// poll. ok is false when the mailbox is empty (a cheap local check).
func (n *Net) Poll(p *sim.Proc, rank int) (Msg, bool) {
	if len(n.boxes[rank]) == 0 {
		// An empty poll must advance virtual time: on zero-cost machines
		// (topo.Uniform) a polling loop would otherwise spin forever at the
		// same instant.
		p.Sleep(max(n.Mach.LocalOp, 1))
		return Msg{}, false
	}
	m := n.boxes[rank][0]
	n.boxes[rank] = n.boxes[rank][1:]
	n.st[rank].Received++
	p.Sleep(SoftwareOverhead)
	return m, true
}

// Pending returns the number of queued messages for rank without cost.
func (n *Net) Pending(rank int) int { return len(n.boxes[rank]) }

// Stats returns rank's counters.
func (n *Net) Stats(rank int) Stats { return n.st[rank] }

// TotalStats aggregates counters over all ranks.
func (n *Net) TotalStats() Stats {
	var t Stats
	for _, s := range n.st {
		t.Sent += s.Sent
		t.Received += s.Received
		t.BytesSent += s.BytesSent
		t.Dropped += s.Dropped
		t.Retransmits += s.Retransmits
	}
	return t
}
