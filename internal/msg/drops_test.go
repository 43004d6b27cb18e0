package msg

import (
	"testing"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// TestExactlyOnceUnderDropsTwoNodes is the delivery audit of the retransmit
// loop under drop-heavy fault injection on two nodes: every rank sends half
// its messages to a rank on its own node and half across, every attempt may
// be lost, and still each message is received exactly once, every drop is
// answered by exactly one retransmit, and nothing is left in flight.
func TestExactlyOnceUnderDropsTwoNodes(t *testing.T) {
	const (
		ranks   = 8
		perNode = 4
		perRank = 100 // messages per sender; even, split across two dests
	)
	eng := sim.NewEngine()
	defer eng.Shutdown()
	m := topo.Uniform(5 * sim.Microsecond)
	m.CoresPerNode = perNode
	m.IntraLatency = sim.Microsecond
	m.Perturb = &topo.Perturb{Seed: 17, DropProb: 0.4, LatencyJitter: 0.5}
	n := New(eng, m, ranks)

	// Rank r alternates between its successor on its own node and its peer
	// on the other node, so every rank is the destination of one sender of
	// each kind, perRank/2 messages each.
	seen := make(map[[2]int64]int)
	for r := 0; r < ranks; r++ {
		r := r
		eng.GoID("send", int64(r), func(p *sim.Proc) {
			for i := 0; i < perRank; i++ {
				dst := r - r%perNode + (r+1)%perNode
				if i%2 == 1 {
					dst = (r + perNode) % ranks
				}
				n.Send(p, r, dst, Msg{Kind: 1, A: int64(r), B: int64(i)})
			}
		})
		eng.GoID("recv", int64(r), func(p *sim.Proc) {
			for got := 0; got < perRank; {
				if msg, ok := n.Poll(p, r); ok {
					seen[[2]int64{msg.A, msg.B}]++
					got++
				} else {
					p.Sleep(sim.Microsecond)
				}
			}
		})
	}
	eng.Run(sim.Forever)

	tot := n.TotalStats()
	if want := uint64(ranks * perRank); tot.Sent != want || tot.Received != want {
		t.Fatalf("sent %d received %d, want %d each (lost or duplicated deliveries)", tot.Sent, tot.Received, want)
	}
	if len(seen) != ranks*perRank {
		t.Errorf("%d distinct messages received, want %d", len(seen), ranks*perRank)
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("message %v received %d times", k, c)
		}
	}
	if tot.Dropped == 0 {
		t.Fatal("no drops at p=0.4 over 800 sends — fault injection inert")
	}
	if tot.Dropped != tot.Retransmits {
		t.Errorf("drops (%d) != retransmits (%d): a lost attempt leaked", tot.Dropped, tot.Retransmits)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events still queued after the run", eng.Pending())
	}
	for r, box := range n.boxes {
		if len(box) != 0 {
			t.Errorf("rank %d mailbox holds %d undelivered messages", r, len(box))
		}
	}
}
