package topo

import (
	"testing"

	"contsteal/internal/sim"
)

// TestIntraNodeSizeTermAtMemoryBandwidth is the regression test for the
// intra-node bulk-transfer billing bug: the size term of a same-node
// one-sided op must be charged at memory bandwidth (shared-memory window),
// not network bandwidth.
func TestIntraNodeSizeTermAtMemoryBandwidth(t *testing.T) {
	m := ITOA() // IntraLatency 800, MemBytesPerNS 12, NetBytesPerNS 1.2
	size := 12 * 1024
	got := m.OneSided(0, 1, size, false)
	want := m.IntraLatency + sim.Time(float64(size)/m.MemBytesPerNS)
	if got != want {
		t.Errorf("intra-node OneSided(%dB) = %v, want %v (size term at MemBytesPerNS)", size, got, want)
	}
	wrong := m.IntraLatency + sim.Time(float64(size)/m.NetBytesPerNS)
	if got == wrong {
		t.Errorf("intra-node size term still billed at network bandwidth (%v)", wrong)
	}
	// Inter-node ops still pay network bandwidth.
	inter := m.OneSided(0, m.CoresPerNode, size, false)
	if want := m.InterLatency + sim.Time(float64(size)/m.NetBytesPerNS); inter != want {
		t.Errorf("inter-node OneSided(%dB) = %v, want %v", size, inter, want)
	}
}

func TestPerturbInactiveIsExactNoOp(t *testing.T) {
	for _, pb := range []*Perturb{nil, {}, {Seed: 99}, {StragglerFrac: 0.5, StragglerFactor: 1}} {
		if pb.Active() {
			t.Fatalf("Perturb %+v should be inactive", pb)
		}
		m := ITOA()
		m.Perturb = pb
		for _, to := range []int{1, 40} {
			d, extra := m.OpDelay(0, to, 1536, false)
			if extra != 0 || d != m.OneSided(0, to, 1536, false) {
				t.Errorf("inactive OpDelay(0,%d) = (%v,%v), want (OneSided,0)", to, d, extra)
			}
		}
		if m.ComputeOn(5, 1000) != m.Compute(1000) {
			t.Error("inactive ComputeOn differs from Compute")
		}
		if m.DropMsg(0, 1) {
			t.Error("inactive model dropped a message")
		}
		if m.pert != nil {
			t.Error("inactive model consumed RNG streams")
		}
	}
}

func TestPerturbJitterBoundedAndDeterministic(t *testing.T) {
	run := func() []sim.Time {
		m := ITOA()
		m.Perturb = &Perturb{Seed: 7, LatencyJitter: 0.5}
		out := make([]sim.Time, 0, 32)
		for i := 0; i < 16; i++ {
			d, extra := m.OpDelay(0, 40, 64, false)
			base := m.OneSided(0, 40, 64, false)
			if d < base || float64(d) >= float64(base)*1.5+1 {
				t.Fatalf("jittered delay %v outside [base, 1.5*base) (base %v)", d, base)
			}
			if d-extra != base {
				t.Fatalf("delay-extra (%v) != base (%v)", d-extra, base)
			}
			out = append(out, d, extra)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter sequence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Distinct links have independent streams: drawing on one must not
	// shift the other.
	m := ITOA()
	m.Perturb = &Perturb{Seed: 7, LatencyJitter: 0.5}
	m.OpDelay(0, 36, 64, false) // consume link (0,36)
	d1, _ := m.OpDelay(0, 72, 64, false)
	m2 := ITOA()
	m2.Perturb = &Perturb{Seed: 7, LatencyJitter: 0.5}
	d2, _ := m2.OpDelay(0, 72, 64, false)
	if d1 != d2 {
		t.Errorf("link (0,72) stream shifted by traffic on link (0,36): %v vs %v", d1, d2)
	}
}

func TestPerturbStragglersAndLinks(t *testing.T) {
	m := ITOA()
	m.Perturb = &Perturb{Seed: 3, StragglerFrac: 0.5, StragglerFactor: 4}
	n := 0
	for node := 0; node < 64; node++ {
		if m.IsStraggler(node) {
			n++
		}
		if m.IsStraggler(node) != m.IsStraggler(node) {
			t.Fatal("straggler membership not stable")
		}
	}
	if n == 0 || n == 64 {
		t.Errorf("straggler count %d/64 at frac 0.5: hash degenerate", n)
	}
	strag, fast := -1, -1
	for node := 0; node < 64; node++ {
		if m.IsStraggler(node) {
			strag = node
		} else {
			fast = node
		}
	}
	cpn := m.CoresPerNode
	if got := m.ComputeOn(strag*cpn, 1000); got != 4000 {
		t.Errorf("straggler ComputeOn = %v, want 4000", got)
	}
	if got := m.ComputeOn(fast*cpn, 1000); got != 1000 {
		t.Errorf("non-straggler ComputeOn = %v, want 1000", got)
	}

	lm := ITOA()
	lm.Perturb = &Perturb{Seed: 3, DegradedLinkFrac: 0.5, DegradedFactor: 4}
	deg := 0
	var a, b int
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			if lm.LinkDegraded(i, j) != lm.LinkDegraded(j, i) {
				t.Fatal("link degradation not symmetric")
			}
			if lm.LinkDegraded(i, j) {
				deg++
				a, b = i, j
			}
		}
	}
	if deg == 0 || deg == 120 {
		t.Fatalf("degraded link count %d/120 at frac 0.5: hash degenerate", deg)
	}
	if lm.LinkDegraded(2, 2) {
		t.Error("intra-node link degraded")
	}
	d, extra := lm.OpDelay(a*lm.CoresPerNode, b*lm.CoresPerNode, 0, false)
	if d != 4*lm.InterLatency || extra != 3*lm.InterLatency {
		t.Errorf("degraded-link OpDelay = (%v,%v), want (4x,3x base)", d, extra)
	}
}

func TestPerturbDrops(t *testing.T) {
	m := ITOA()
	m.Perturb = &Perturb{Seed: 11, DropProb: 0.5}
	drops := 0
	for i := 0; i < 256; i++ {
		if m.DropMsg(0, 40) {
			drops++
		}
	}
	if drops < 64 || drops > 192 {
		t.Errorf("drop count %d/256 at p=0.5 far from expectation", drops)
	}
}

func TestParsePerturb(t *testing.T) {
	pb, err := ParsePerturb("jitter=0.5,straggler=0.25,drop=0.01,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := Perturb{Seed: 9, LatencyJitter: 0.5, StragglerFrac: 0.25, StragglerFactor: 3, DegradedFactor: 4, DropProb: 0.01}
	if *pb != want {
		t.Errorf("ParsePerturb = %+v, want %+v", *pb, want)
	}
	if !pb.Active() {
		t.Error("parsed model should be active")
	}
	if p2, err := ParsePerturb(pb.String()); err != nil || *p2 != *pb {
		t.Errorf("String round-trip: %+v via %q (err %v)", p2, pb.String(), err)
	}
	if pb, err := ParsePerturb(""); pb != nil || err != nil {
		t.Error("empty spec should parse to nil")
	}
	// seed-only spec: plumbing exercised, model inactive — the CI
	// golden-equivalence step relies on this being a strict no-op.
	pb, err = ParsePerturb("seed=1")
	if err != nil || pb == nil || pb.Active() {
		t.Errorf("seed-only spec should parse to an inactive model (pb=%+v err=%v)", pb, err)
	}
	for _, bad := range []string{"jitter", "nope=1", "jitter=x", "seed=x"} {
		if _, err := ParsePerturb(bad); err == nil {
			t.Errorf("ParsePerturb(%q) accepted", bad)
		}
	}
}

// TestParsePerturbRejectsUnsoundMagnitudes pins the spec validation: any
// knob value that could (absent the OpDelay clamp) shrink a delay below
// the unperturbed base, or that is not a probability where one is
// expected, must be refused at parse time rather than silently relied on
// to be clamped later.
func TestParsePerturbRejectsUnsoundMagnitudes(t *testing.T) {
	bad := []string{
		"jitter=-0.5,seed=1",             // negative jitter would compress delays
		"straggler=1.5,seed=1",           // not a probability
		"straggler=-0.1,seed=1",          //
		"straggler=0.5,sfactor=0.5",      // would speed stragglers up
		"degraded=2,seed=1",              // not a probability
		"degraded=0.5,dfactor=0.5",       // would undercut the latency lower bound
		"degraded=0.5,dfactor=-3,seed=2", //
		"drop=1,seed=1",                  // nothing ever delivers: retransmit forever
		"drop=1.5,seed=1",                //
		"drop=-0.01,seed=1",              //
	}
	for _, spec := range bad {
		if pb, err := ParsePerturb(spec); err == nil {
			t.Errorf("ParsePerturb(%q) accepted unsound spec: %+v", spec, pb)
		}
	}
	// Boundary values that are sound must keep parsing.
	good := []string{
		"jitter=0,seed=1",
		"straggler=1,sfactor=1",
		"degraded=1,dfactor=1",
		"drop=0.99,seed=1",
	}
	for _, spec := range good {
		if _, err := ParsePerturb(spec); err != nil {
			t.Errorf("ParsePerturb(%q): %v", spec, err)
		}
	}
}
