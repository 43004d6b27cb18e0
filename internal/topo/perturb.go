package topo

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"contsteal/internal/sim"
)

// Perturb configures deterministic perturbation and fault injection for a
// Machine. All randomness derives from Seed through per-(from,to)-link RNG
// streams and pure hashes, so a run is a function of (config, seed) only:
// the same sweep produces byte-identical output at any host parallelism, and
// a zero-valued model (Active() == false) consumes no RNG and leaves every
// op-issue path on the exact unperturbed cost — goldens stay byte-identical.
//
// Semantics of the knobs:
//
//   - LatencyJitter J: every remote one-sided op and message delivery is
//     stretched by a uniform factor in [1, 1+J), drawn from the stream of its
//     directed (from,to) rank pair.
//   - StragglerFrac/StragglerFactor: each *node* is a straggler with
//     probability StragglerFrac (pure hash of (Seed, node) — membership is
//     independent of query order); compute on a straggler node is multiplied
//     by StragglerFactor.
//   - DegradedLinkFrac/DegradedFactor: each unordered *node pair* is degraded
//     with probability DegradedLinkFrac (pure hash); the base latency of
//     inter-node ops crossing a degraded pair is multiplied by DegradedFactor.
//     Intra-node traffic never degrades (it is a memcpy, not a cable).
//   - DropProb: each delivery attempt of a two-sided message (internal/msg)
//     is dropped with probability DropProb, drawn from the directed link's
//     drop stream; the msg layer retransmits with bounded exponential backoff.
type Perturb struct {
	Seed             int64
	LatencyJitter    float64
	StragglerFrac    float64
	StragglerFactor  float64
	DegradedLinkFrac float64
	DegradedFactor   float64
	DropProb         float64
}

// Active reports whether the model perturbs anything at all. A nil or
// all-zero-magnitude Perturb is a strict no-op: no RNG stream is ever
// created or consumed, so timing is bit-identical to Perturb == nil.
func (pb *Perturb) Active() bool {
	if pb == nil {
		return false
	}
	return pb.LatencyJitter > 0 ||
		(pb.StragglerFrac > 0 && pb.StragglerFactor != 1) ||
		(pb.DegradedLinkFrac > 0 && pb.DegradedFactor != 1) ||
		pb.DropProb > 0
}

// String renders the model in ParsePerturb's spec syntax (empty for nil).
func (pb *Perturb) String() string {
	if pb == nil {
		return ""
	}
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	add("jitter", pb.LatencyJitter)
	add("straggler", pb.StragglerFrac)
	add("sfactor", pb.StragglerFactor)
	add("degraded", pb.DegradedLinkFrac)
	add("dfactor", pb.DegradedFactor)
	add("drop", pb.DropProb)
	parts = append(parts, fmt.Sprintf("seed=%d", pb.Seed))
	return strings.Join(parts, ",")
}

// validate rejects knob magnitudes outside their sound ranges. The factor
// knobs and jitter must never be able to shrink a delay below the
// unperturbed base: OpDelay clamps to the base as a second line of defence
// (the MinCrossNodeLatency lookahead bound depends on it), but a
// spec that would only "work" because of the clamp is almost certainly a
// typo, so it is refused up front. drop must stay below 1 or no message
// ever delivers and the retransmit loop runs forever.
func (pb *Perturb) validate() error {
	switch {
	case pb.LatencyJitter < 0:
		return fmt.Errorf("perturb: jitter %v is negative; jitter stretches delays by a factor in [1, 1+jitter)", pb.LatencyJitter)
	case pb.StragglerFrac < 0 || pb.StragglerFrac > 1:
		return fmt.Errorf("perturb: straggler %v is not a probability in [0,1]", pb.StragglerFrac)
	case pb.StragglerFactor < 1:
		return fmt.Errorf("perturb: sfactor %v would speed stragglers up; must be >= 1", pb.StragglerFactor)
	case pb.DegradedLinkFrac < 0 || pb.DegradedLinkFrac > 1:
		return fmt.Errorf("perturb: degraded %v is not a probability in [0,1]", pb.DegradedLinkFrac)
	case pb.DegradedFactor < 1:
		return fmt.Errorf("perturb: dfactor %v would undercut the cross-node latency lower bound; must be >= 1", pb.DegradedFactor)
	case pb.DropProb < 0 || pb.DropProb >= 1:
		return fmt.Errorf("perturb: drop %v is not a probability in [0,1)", pb.DropProb)
	}
	return nil
}

// ParsePerturb parses a comma-separated key=value spec, e.g.
//
//	"jitter=0.5,straggler=0.25,sfactor=3,drop=0.01,seed=1"
//
// Keys: jitter, straggler, sfactor (default 3), degraded, dfactor
// (default 4), drop, seed (default 1). An empty spec returns nil.
// Magnitudes are validated: fractions must be probabilities, factors must
// be >= 1 and jitter >= 0, so that no accepted spec can push a delay below
// the unperturbed cost model's lower bounds.
func ParsePerturb(spec string) (*Perturb, error) {
	if spec == "" {
		return nil, nil
	}
	pb := &Perturb{Seed: 1, StragglerFactor: 3, DegradedFactor: 4}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("perturb: %q is not key=value", kv)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("perturb: seed: %v", err)
			}
			pb.Seed = n
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("perturb: %s: %v", k, err)
		}
		switch k {
		case "jitter":
			pb.LatencyJitter = f
		case "straggler":
			pb.StragglerFrac = f
		case "sfactor":
			pb.StragglerFactor = f
		case "degraded":
			pb.DegradedLinkFrac = f
		case "dfactor":
			pb.DegradedFactor = f
		case "drop":
			pb.DropProb = f
		default:
			return nil, fmt.Errorf("perturb: unknown key %q", k)
		}
	}
	if err := pb.validate(); err != nil {
		return nil, err
	}
	return pb, nil
}

// linkKey identifies one RNG stream: a purpose on a directed rank pair.
type linkKey struct {
	purpose  uint64
	from, to int
}

// Stream purposes, folded into seeds/hashes so the jitter stream, the drop
// stream and the membership hashes are mutually independent.
const (
	pertJitter = 0x6a69 // "ji"
	pertDrop   = 0x6472 // "dr"
	pertStrag  = 0x7374 // "st"
	pertLink   = 0x6c6b // "lk"
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix used both to
// derive stream seeds and as the pure membership hash.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashFrac maps (seed, purpose, a, b) to a uniform float64 in [0,1),
// independent of query order — used for straggler/degraded membership.
func hashFrac(seed int64, purpose, a, b uint64) float64 {
	h := mix64(mix64(uint64(seed)^purpose<<48) ^ mix64(a<<32|b&0xFFFFFFFF))
	return float64(h>>11) / (1 << 53)
}

// linkRand returns the purpose stream of the directed link from→to, seeding
// it on first use.
func (m *Machine) linkRand(purpose uint64, from, to int) *rand.Rand {
	if m.pert == nil {
		m.pert = make(map[linkKey]*rand.Rand)
	}
	k := linkKey{purpose, from, to}
	r, ok := m.pert[k]
	if !ok {
		s := mix64(uint64(m.Perturb.Seed) ^ purpose<<48 ^ uint64(from)<<24 ^ uint64(to))
		r = rand.New(rand.NewSource(int64(s)))
		m.pert[k] = r
	}
	return r
}

// jitterRand returns the latency-jitter stream of the directed link from→to.
func (m *Machine) jitterRand(from, to int) *rand.Rand { return m.linkRand(pertJitter, from, to) }

// dropRand returns the message-drop stream of the directed link from→to.
func (m *Machine) dropRand(from, to int) *rand.Rand { return m.linkRand(pertDrop, from, to) }

// IsStraggler reports whether the given node is a straggler under the
// machine's Perturb model. Membership is a pure hash — stable, order-free.
func (m *Machine) IsStraggler(node int) bool {
	pb := m.Perturb
	if pb == nil || pb.StragglerFrac <= 0 || pb.StragglerFactor == 1 {
		return false
	}
	return hashFrac(pb.Seed, pertStrag, uint64(node), 0) < pb.StragglerFrac
}

// LinkDegraded reports whether the unordered node pair (a,b) is degraded.
// Intra-node "links" (a == b) never are.
func (m *Machine) LinkDegraded(a, b int) bool {
	pb := m.Perturb
	if pb == nil || pb.DegradedLinkFrac <= 0 || pb.DegradedFactor == 1 || a == b {
		return false
	}
	if a > b {
		a, b = b, a
	}
	return hashFrac(pb.Seed, pertLink, uint64(a), uint64(b)) < pb.DegradedLinkFrac
}

// OpDelay returns the possibly-perturbed duration of a one-sided op from
// rank `from` to rank `to`, plus the perturbation extra (delay includes
// extra; extra == 0 whenever the model is inactive). This is the op-issue
// entry point for internal/rdma and internal/msg; pure accounting paths
// (ideal-time math, task-copy attribution) keep calling OneSided so they
// never consume perturbation RNG.
func (m *Machine) OpDelay(from, to, size int, atomic bool) (delay, extra sim.Time) {
	base := m.OneSided(from, to, size, atomic)
	pb := m.Perturb
	if !pb.Active() {
		return base, 0
	}
	d := float64(base)
	if m.LinkDegraded(m.NodeOf(from), m.NodeOf(to)) {
		d *= pb.DegradedFactor
	}
	if pb.LatencyJitter > 0 {
		d *= 1 + m.jitterRand(from, to).Float64()*pb.LatencyJitter
	}
	delay = sim.Time(d)
	if delay < base {
		delay = base
	}
	return delay, delay - base
}

// ComputeOn scales a nominal compute duration like Compute, additionally
// applying the straggler multiplier of the node hosting rank.
func (m *Machine) ComputeOn(rank int, d sim.Time) sim.Time {
	d = m.Compute(d)
	if pb := m.Perturb; pb.Active() && m.IsStraggler(m.NodeOf(rank)) {
		d = sim.Time(float64(d) * pb.StragglerFactor)
	}
	return d
}

// DropMsg reports whether the next delivery attempt on the directed link
// from→to is dropped. Draws from the link's drop stream only when the model
// injects drops at all.
func (m *Machine) DropMsg(from, to int) bool {
	pb := m.Perturb
	if pb == nil || pb.DropProb <= 0 {
		return false
	}
	return m.dropRand(from, to).Float64() < pb.DropProb
}
