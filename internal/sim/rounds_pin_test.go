package sim

import (
	"fmt"
	"testing"
)

// relayProgram is the starvation relay: shards 0 and 1 pass a token back and
// forth, each hop gap apart, while every other shard of s stays empty for the
// whole run. Returns the per-relay-shard logs, filled as the run proceeds.
func relayProgram(s *Sharded, gap Time, balls uint64) [][]string {
	logs := make([][]string, 2)
	var hop [2]func()
	left := balls
	for i := range hop {
		i := i
		hop[i] = func() {
			logs[i] = append(logs[i], fmt.Sprintf("t=%d hop%d", int64(s.Shard(i).Now()), i))
			left--
			if left > 0 {
				s.RouteAfter(i, 1-i, gap, hop[1-i])
			}
		}
	}
	s.Shard(0).After(5, hop[0])
	return logs
}

// wisteriaLookahead is topo.WisteriaO().MinCrossNodeLatency() — the
// lookahead the benchmark's sharded micro-kernel runs at (topo imports sim,
// so the value is spelled out here).
const wisteriaLookahead = Time(3200)

// nodeKernel is the benchmark's sharded micro-kernel: one proc per node, node
// k on shard k mod s.Shards(), each sleeping 200+k per step, scheduling one
// local callback a step, and every fourth step routing one event to the next
// node's shard at exactly the lookahead.
func nodeKernel(s *Sharded, nodes, steps int) {
	shards := s.Shards()
	look := s.Lookahead()
	for node := 0; node < nodes; node++ {
		node, shard := node, node%shards
		s.Go(shard, "node", func(p *Proc) {
			for step := 0; step < steps; step++ {
				p.Sleep(Time(200 + node))
				s.Shard(shard).After(50, func() {})
				if step%4 == 0 {
					s.RouteAfter(shard, ((node+1)%nodes)%shards, look, func() {})
				}
			}
		})
	}
}

// TestShardedRoundsPinned pins the synchronisation cost of the adaptive
// window policy: for each program, the barrier rounds it takes, the
// cross-shard events injected at barriers, and the summed engine counters.
// The round count is what the horizon computation decides: a change to it
// that moves a count shows here even when the serial-oracle tests still pass
// (they check what ran, not how many rounds it took).
func TestShardedRoundsPinned(t *testing.T) {
	program := func(n int, split Time) func() *Sharded {
		return func() *Sharded {
			sp := &shardProgram{n: n, look: 10, logs: make([][]string, n)}
			s := NewSharded(n, sp.look)
			sp.build(
				func(shard int, name string, body func(p *Proc)) { s.Go(shard, name, body) },
				s.RouteAfter,
				func(shard int, d Time, fn func()) { s.Shard(shard).After(d, fn) },
				func(shard int) Time { return s.Shard(shard).Now() },
			)
			if split > 0 {
				s.Run(split)
			}
			s.Run(Forever)
			return s
		}
	}
	cases := []struct {
		name   string
		run    func() *Sharded
		rounds uint64
		routed uint64
		stats  EngineStats
	}{
		{"program n=2", program(2, 0), 6, 12, EngineStats{Events: 50, Handoffs: 14, Callbacks: 36}},
		{"program n=3", program(3, 0), 7, 18, EngineStats{Events: 75, Handoffs: 21, Callbacks: 54}},
		{"program n=4", program(4, 0), 7, 24, EngineStats{Events: 100, Handoffs: 28, Callbacks: 72}},
		{"program n=3 split at 17", program(3, 17), 7, 18, EngineStats{Events: 75, Handoffs: 21, Callbacks: 54}},
		{"starvation relay", func() *Sharded {
			s := NewSharded(3, 10)
			relayProgram(s, 400, 12)
			s.Run(Forever)
			return s
		}, 12, 11, EngineStats{Events: 12, Callbacks: 12}},
		{"hop ring n=3", func() *Sharded {
			s := NewSharded(3, 10)
			r := newHopRing(s)
			r.hops = 9
			s.Shard(0).After(1, r.run[0])
			s.Run(Forever)
			return s
		}, 10, 9, EngineStats{Events: 10, Callbacks: 10}},
		{"hop rings and local chains n=2", func() *Sharded {
			s := NewSharded(2, 10)
			for i := 0; i < 2; i++ {
				r, c := newHopRing(s), newLocalChain(s.Shard(i))
				r.hops, c.left = 8, 16
				s.Shard(i).After(1, r.run[i])
				s.Shard(i).After(2, c.fn)
			}
			s.Run(Forever)
			return s
		}, 9, 16, EngineStats{Events: 52, Callbacks: 52}},
		{"lone local chain n=2", func() *Sharded {
			// Only shard 0 ever has events: its horizon is its own round-trip
			// bound, so the round count is span / 2L.
			s := NewSharded(2, 10)
			c := newLocalChain(s.Shard(0))
			c.left = 40
			s.Shard(0).After(1, c.fn)
			s.Run(Forever)
			return s
		}, 6, 0, EngineStats{Events: 41, Callbacks: 41}},
		{"node kernel 4 nodes on 2 shards", func() *Sharded {
			s := NewSharded(2, wisteriaLookahead)
			nodeKernel(s, 4, 300)
			s.Run(Forever)
			return s
		}, 20, 300, EngineStats{Events: 2704, Handoffs: 1204, Callbacks: 1500}},
	}
	for _, c := range cases {
		s := c.run()
		if got := s.Rounds(); got != c.rounds {
			t.Errorf("%s: Rounds() = %d, want %d", c.name, got, c.rounds)
		}
		if got := s.Routed(); got != c.routed {
			t.Errorf("%s: Routed() = %d, want %d", c.name, got, c.routed)
		}
		if got := s.Stats(); got != c.stats {
			t.Errorf("%s: Stats() = %+v, want %+v", c.name, got, c.stats)
		}
		s.Shutdown()
	}
}
