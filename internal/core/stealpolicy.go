package core

import (
	"fmt"
	"strings"
)

// VictimPolicy selects how an idle worker picks its steal victim. The zero
// value is the paper's policy — uniform random over all other workers — and
// is byte-identical to the runtime before victim selection became pluggable.
type VictimPolicy int

const (
	// VictimUniform picks uniformly at random among the other workers.
	VictimUniform VictimPolicy = iota
	// VictimHier is intra-node-first hierarchical stealing: while the
	// worker's failed-steal streak is short it probes only its own node
	// (cheap intra-node protocol ops); after hierEscalateAfter consecutive
	// failures it escalates to a uniform probe over the whole cluster.
	VictimHier
	// VictimLocality is owner-aware stealing: prefer the rank owning the
	// uni-address region of the last task this worker acquired (its last
	// successful steal victim) — work spawned there tends to keep its data
	// and descendants there. Falls back to uniform when there is no live
	// affinity, and drops the affinity on a failed probe.
	VictimLocality
)

func (v VictimPolicy) String() string {
	switch v {
	case VictimUniform:
		return "uniform"
	case VictimHier:
		return "hier"
	case VictimLocality:
		return "locality"
	}
	return "invalid"
}

// AmountPolicy selects how many entries a successful steal takes. The zero
// value is the paper's steal-one.
type AmountPolicy int

const (
	// StealOne takes the single oldest entry (the THE protocol's steal).
	StealOne AmountPolicy = iota
	// StealHalf takes half of the entries observed under the deque lock
	// (rounded up, at least one): the same steal chain with stealHalf as
	// deque.StealN's take function. The oldest runs immediately; the surplus
	// is requeued into the thief's own deque, with continuation stacks
	// migrating lazily on first resume.
	StealHalf
)

func (a AmountPolicy) String() string {
	if a == StealHalf {
		return "half"
	}
	return "one"
}

// StealPolicy is the pluggable stealing policy of a Runtime: a victim
// selector plus a steal amount. The zero value reproduces the paper's
// runtime exactly — uniform victims, steal-one — byte for byte.
type StealPolicy struct {
	Victim VictimPolicy
	Amount AmountPolicy
}

// Default reports whether p is the zero (paper) policy.
func (p StealPolicy) Default() bool { return p == StealPolicy{} }

func (p StealPolicy) String() string {
	s := p.Victim.String()
	if p.Amount == StealHalf {
		s += "-half"
	}
	return s
}

// StealPolicyNames lists every parsable policy name, victim-major, the
// default first — the canonical sweep order of the stealzoo experiment.
func StealPolicyNames() []string {
	return []string{"uniform", "hier", "locality", "uniform-half", "hier-half", "locality-half"}
}

// ParseStealPolicy resolves a policy name: a victim policy ("uniform",
// "hier", "locality"), optionally suffixed with "-half" for steal-half.
// "" parses as the default (uniform, steal-one) policy.
func ParseStealPolicy(s string) (StealPolicy, error) {
	var p StealPolicy
	name := s
	if strings.HasSuffix(name, "-half") {
		p.Amount = StealHalf
		name = strings.TrimSuffix(name, "-half")
	}
	switch name {
	case "", "uniform":
		p.Victim = VictimUniform
	case "hier":
		p.Victim = VictimHier
	case "locality":
		p.Victim = VictimLocality
	default:
		return StealPolicy{}, fmt.Errorf("core: unknown steal policy %q (want one of %s)",
			s, strings.Join(StealPolicyNames(), ", "))
	}
	return p, nil
}
