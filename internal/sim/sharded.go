package sim

import "fmt"

// Sharded is a shard-confined program's view of one NewEngineShards(n)
// engine: procs spawn on an explicit shard, and the only cross-shard
// interaction is RouteAfter, whose delay must be at least the lookahead — the
// routing contract a concurrent execution would need. There is one heap, so
// event order is the serial engine's by construction.
//
// The type exists only because benchmark/micro.go's sim.sharded_event_ns
// kernel calls exactly these seven names; the benchmark-only change that
// drops that metric removes this type with it. Runtimes shard through the
// engine itself (GoIDOn, AfterOn, AssertShard).
type Sharded struct {
	e    *Engine
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
	return &Sharded{e: NewEngineShards(n), look: lookahead}
}

// Shard returns the engine every shard runs on; i is not consulted.
func (s *Sharded) Shard(i int) *Engine { return s.e }

// Go spawns a proc on shard i.
func (s *Sharded) Go(i int, name string, body func(p *Proc)) *Proc {
	if i < 0 || i >= len(s.e.sstats) {
		panic(fmt.Sprintf("sim: Go shard %d out of range [0,%d)", i, len(s.e.sstats)))
	}
	return s.e.spawn(0, i, name, "", 0, body)
}

// RouteAfter schedules fn on shard dst, d nanoseconds from now. A
// cross-shard delay below the lookahead breaks the routing contract, so it
// fails fast.
func (s *Sharded) RouteAfter(src, dst int, d Time, fn func()) {
	if src != dst && d < s.look {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v (shard %d -> %d)", d, s.look, src, dst))
	}
	s.e.AfterOn(dst, d, fn)
}

// Run is Engine.Run.
func (s *Sharded) Run(until Time) Time { return s.e.Run(until) }

// Stats is Engine.Stats.
func (s *Sharded) Stats() EngineStats { return s.e.Stats() }

// Shutdown is Engine.Shutdown.
func (s *Sharded) Shutdown() { s.e.Shutdown() }
