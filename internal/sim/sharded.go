package sim

import "fmt"

// Sharded is a view of one plain engine as n shards: procs spawn on a
// numbered shard, and the only cross-shard interaction is RouteAfter, whose
// delay must be at least the lookahead. Every shard is the same engine, so
// event order is the serial engine's by construction.
//
// The type exists only because benchmark/micro.go's sim.sharded_event_ns
// kernel calls exactly these seven names; the benchmark-only change that
// drops that metric removes this type with it.
type Sharded struct {
	e    *Engine
	n    int
	look Time
}

// NewSharded returns a group of n shards on one engine whose cross-shard
// events are all at least lookahead in the future (must be positive).
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead")
	}
	return &Sharded{e: NewEngine(), n: n, look: lookahead}
}

// Shard returns the engine every shard runs on; i is not consulted.
func (s *Sharded) Shard(i int) *Engine { return s.e }

// Go spawns a proc on shard i.
func (s *Sharded) Go(i int, name string, body func(p *Proc)) *Proc {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("sim: Go shard %d out of range [0,%d)", i, s.n))
	}
	return s.e.Go(name, body)
}

// RouteAfter schedules fn on shard dst, d nanoseconds from now. A
// cross-shard delay below the lookahead breaks the routing contract, so it
// fails fast.
func (s *Sharded) RouteAfter(src, dst int, d Time, fn func()) {
	if src != dst && d < s.look {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v (shard %d -> %d)", d, s.look, src, dst))
	}
	s.e.After(d, fn)
}

// Run is Engine.Run.
func (s *Sharded) Run(until Time) Time { return s.e.Run(until) }

// Stats is Engine.Stats.
func (s *Sharded) Stats() EngineStats { return s.e.Stats() }

// Shutdown is Engine.Shutdown.
func (s *Sharded) Shutdown() { s.e.Shutdown() }
