package topo

import (
	"testing"

	"contsteal/internal/sim"
)

func TestNodeOf(t *testing.T) {
	m := ITOA() // 36 cores/node
	cases := []struct{ rank, node int }{
		{0, 0}, {35, 0}, {36, 1}, {71, 1}, {72, 2},
	}
	for _, c := range cases {
		if got := m.NodeOf(c.rank); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.rank, got, c.node)
		}
	}
	if !m.SameNode(0, 35) || m.SameNode(35, 36) {
		t.Error("SameNode boundary wrong")
	}
	// Nodes are dealt round-robin onto shards, a whole node to one shard:
	// ranks on different shards are always on different nodes.
	if got := m.ShardOf(3*36, 3); got != 0 {
		t.Errorf("ShardOf(108, 3) = %d, want node 3 wrapped onto shard 0", got)
	}
	for a := 0; a < 4*36; a += 7 {
		for b := 0; b < 4*36; b += 5 {
			if m.ShardOf(a, 3) != m.ShardOf(b, 3) && m.SameNode(a, b) {
				t.Errorf("ranks %d and %d share a node but not a shard", a, b)
			}
		}
	}
}

func TestOneSidedLatencyOrdering(t *testing.T) {
	for _, m := range []*Machine{ITOA(), WisteriaO()} {
		intra := m.OneSided(0, 1, 8, false)
		inter := m.OneSided(0, m.CoresPerNode, 8, false)
		atomicInter := m.OneSided(0, m.CoresPerNode, 8, true)
		if !(intra < inter) {
			t.Errorf("%s: intra-node (%v) should be cheaper than inter-node (%v)", m.Name, intra, inter)
		}
		if !(inter < atomicInter) {
			t.Errorf("%s: atomic (%v) should cost more than plain (%v)", m.Name, atomicInter, inter)
		}
	}
}

func TestPayloadSizeIncreasesLatency(t *testing.T) {
	m := ITOA()
	small := m.OneSided(0, 40, 8, false)
	big := m.OneSided(0, 40, 64*1024, false)
	if !(small < big) {
		t.Errorf("64KiB transfer (%v) should cost more than 8B (%v)", big, small)
	}
	// 64 KiB at 1.2 B/ns is ~55us on top of the 4us base.
	if big < 40*sim.Microsecond || big > 80*sim.Microsecond {
		t.Errorf("64KiB inter-node transfer = %v, want ~58us", big)
	}
}

func TestMemcpy(t *testing.T) {
	m := Uniform(100)
	if d := m.Memcpy(1 << 20); d != 0 {
		// Uniform has effectively infinite local bandwidth.
		if d > 1 {
			t.Errorf("Uniform Memcpy(1MiB) = %v, want ~0", d)
		}
	}
	it := ITOA()
	if d := it.Memcpy(12); d != 1 {
		t.Errorf("ITOA Memcpy(12B) = %v, want 1ns at 12 B/ns", d)
	}
}

func TestComputeScaling(t *testing.T) {
	w := WisteriaO()
	if got := w.Compute(1000); got != sim.Time(2700) {
		t.Errorf("WisteriaO Compute(1000) = %v, want 2700", got)
	}
	i := ITOA()
	if got := i.Compute(1000); got != 1000 {
		t.Errorf("ITOA Compute(1000) = %v, want 1000", got)
	}
}

func TestUniformMachine(t *testing.T) {
	m := Uniform(5 * sim.Microsecond)
	if m.OneSided(0, 1, 8, false) != 5*sim.Microsecond {
		t.Error("uniform machine latency mismatch")
	}
	if m.OneSided(0, 1, 8, true) != 5*sim.Microsecond {
		t.Error("uniform machine should have no atomic surcharge")
	}
	if m.NodeOf(7) != 7 {
		t.Error("uniform machine should have one core per node")
	}
}

func TestSteaLatencyCalibration(t *testing.T) {
	// A successful continuation steal is roughly: read indices (get) + CAS +
	// read descriptor (get) + stack get (~1.5 KiB) + entry fix-up (put).
	// The paper measured ~28.8us on ITO-A; our model should land in the same
	// ballpark (20-40us) for an inter-node victim.
	m := ITOA()
	total := m.OneSided(0, 40, 16, false) + // indices
		m.OneSided(0, 40, 8, true) + // CAS
		m.OneSided(0, 40, 24, false) + // descriptor
		m.OneSided(0, 40, 1536, false) + // stack
		m.OneSided(0, 40, 8, false) // fix-up
	if total < 15*sim.Microsecond || total > 45*sim.Microsecond {
		t.Errorf("modelled steal latency = %v, want 15-45us (paper: ~28.8us)", total)
	}
}

// TestMinCrossNodeLatencyIsALowerBound validates the lookahead contract a
// node-sharded conservative execution relies on: no cross-node operation —
// any size, atomic or not, perturbed or not — may complete in less virtual
// time than MinCrossNodeLatency.
func TestMinCrossNodeLatencyIsALowerBound(t *testing.T) {
	perturbs := []*Perturb{
		nil,
		{LatencyJitter: 0.9, DegradedLinkFrac: 0.5, DegradedFactor: 3, StragglerFrac: 0.5, StragglerFactor: 2, Seed: 11},
		// Adversarial: a sub-1 degraded factor tries to *shrink* delays.
		// ParsePerturb rejects such specs, but a hand-built model must
		// still be harmless — OpDelay clamps to the unperturbed base.
		{DegradedLinkFrac: 1, DegradedFactor: 0.25, Seed: 7},
	}
	for _, mk := range []func() *Machine{ITOA, WisteriaO, func() *Machine { return Uniform(500) }} {
		for _, pb := range perturbs {
			perturbed := pb != nil
			m := mk()
			m.Perturb = pb
			look := m.MinCrossNodeLatency()
			if look != m.InterLatency {
				t.Fatalf("%s: MinCrossNodeLatency = %v, want InterLatency %v", m.Name, look, m.InterLatency)
			}
			if look <= 0 {
				t.Fatalf("%s: lookahead must be positive, got %v", m.Name, look)
			}
			for _, size := range []int{0, 8, 64, 4096} {
				for _, atomic := range []bool{false, true} {
					for to := m.CoresPerNode; to < 4*m.CoresPerNode; to += m.CoresPerNode/2 + 1 {
						if m.SameNode(0, to) {
							continue
						}
						d, _ := m.OpDelay(0, to, size, atomic)
						if d < look {
							t.Errorf("%s perturbed=%v: OpDelay(0,%d,%d,%v) = %v below lookahead %v",
								m.Name, perturbed, to, size, atomic, d, look)
						}
					}
				}
			}
		}
	}
}
