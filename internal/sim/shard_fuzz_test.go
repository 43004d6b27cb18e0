package sim

import (
	"fmt"
	"testing"
)

// fuzzLookahead is the window width of every fuzzed program; delays below it
// are only ever used shard-locally.
const fuzzLookahead = Time(16)

// fuzzRun interprets prog on n logical shards and returns the per-shard logs
// plus the final virtual times of a horizon-split run (Run(horizon) then
// Run(Forever)) and the engine counters. serial selects the executor: a
// single classic Engine — the oracle — with RouteAfter degenerating to After,
// or the Sharded group. Both must agree byte-for-byte for every input.
//
// Each shard's driver proc consumes its own stripe of the program bytes, so
// all control decisions are shard-confined; cross-shard effects travel only
// through the routed closures (which carry their instruction byte as
// payload, like a message body would).
func fuzzRun(t *testing.T, n int, horizon Time, prog []byte, serial bool) (string, Time, Time, EngineStats) {
	logs := make([][]string, n)
	record := func(shard int, now Time, what string) {
		logs[shard] = append(logs[shard], fmt.Sprintf("t=%d %s", int64(now), what))
	}

	var (
		spawn func(shard int, name string, body func(p *Proc))
		route func(src, dst int, d Time, fn func())
		after func(shard int, d Time, fn func())
		now   func(shard int) Time
		run   func(until Time) Time
		stats func() EngineStats
	)
	if !serial {
		s := NewSharded(n, fuzzLookahead)
		defer s.Shutdown()
		spawn = func(shard int, name string, body func(p *Proc)) { s.Go(shard, name, body) }
		route = s.RouteAfter
		after = func(shard int, d Time, fn func()) { s.Shard(shard).After(d, fn) }
		now = func(shard int) Time { return s.Shard(shard).Now() }
		run = s.Run
		stats = s.Stats
	} else {
		e := NewEngine()
		defer e.Shutdown()
		spawn = func(shard int, name string, body func(p *Proc)) { e.Go(name, body) }
		route = func(src, dst int, d Time, fn func()) { e.After(d, fn) }
		after = func(shard int, d Time, fn func()) { e.After(d, fn) }
		now = func(shard int) Time { return e.Now() }
		run = e.Run
		stats = e.Stats
	}

	for i := 0; i < n; i++ {
		i := i
		// Stripe the program across shards: shard i sees bytes i, i+n, ...
		var ops []byte
		for j := i; j < len(prog); j += n {
			ops = append(ops, prog[j])
		}
		spawn(i, fmt.Sprintf("fz%d", i), func(p *Proc) {
			for step, b := range ops {
				step, b := step, b
				p.Sleep(Time(1 + b>>5)) // 1..8
				switch b & 3 {
				case 0: // log a local step
					record(i, now(i), fmt.Sprintf("s%d step%d b%d", i, step, b))
				case 1: // cross-shard route (same-tick ties arise naturally)
					dst := (i + 1 + int(b>>2)%3) % n
					d := fuzzLookahead + Time(b>>3)%7
					route(i, dst, d, func() {
						record(dst, now(dst), fmt.Sprintf("s%d recv from s%d b%d", dst, i, b))
						if b&4 != 0 {
							after(dst, Time(b>>4), func() {
								record(dst, now(dst), fmt.Sprintf("s%d echo of s%d b%d", dst, i, b))
							})
						}
					})
				case 2: // local callback, possibly at the current tick
					after(i, Time(b>>2)%5, func() {
						record(i, now(i), fmt.Sprintf("s%d cb step%d b%d", i, step, b))
					})
				case 3: // nested proc on the same shard
					spawn(i, fmt.Sprintf("fz%d.%d", i, step), func(q *Proc) {
						q.Sleep(Time(b >> 2))
						record(i, now(i), fmt.Sprintf("s%d child step%d b%d", i, step, b))
					})
				}
			}
		})
	}

	mid := run(horizon)
	end := run(Forever)
	var b []byte
	for i, l := range logs {
		b = append(b, fmt.Sprintf("== %d ==\n", i)...)
		for _, line := range l {
			b = append(b, line...)
			b = append(b, '\n')
		}
	}
	return string(b), mid, end, stats()
}

// FuzzShardWindow drives arbitrary shard-confined programs through the
// concurrent engine and the serial engine and requires byte-identical logs,
// identical horizon-split return times, and identical summed engine
// counters.
func FuzzShardWindow(f *testing.F) {
	f.Add(uint8(2), uint16(20), []byte{0, 1, 2, 3, 64, 65, 130, 195})
	f.Add(uint8(3), uint16(0), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(4), uint16(33), []byte{255, 254, 253, 252, 251, 250})
	f.Add(uint8(1), uint16(7), []byte{1, 5, 9, 13, 17, 21})
	f.Add(uint8(2), uint16(50), []byte{0x11, 0x91, 0x15, 0x95, 0x19, 0x99}) // route-heavy
	f.Add(uint8(3), uint16(12), []byte{3, 7, 11, 15, 19, 23, 27, 31})       // spawn-heavy
	f.Add(uint8(4), uint16(1), []byte{2, 6, 10, 14, 18, 22, 26, 30})        // callback-heavy
	f.Add(uint8(2), uint16(16), []byte{0x45, 0x45, 0x45, 0x45, 0x45, 0x45, 0x45, 0x45})
	f.Fuzz(func(t *testing.T, nshards uint8, horizon uint16, prog []byte) {
		n := 1 + int(nshards)%4
		if len(prog) > 64 {
			prog = prog[:64]
		}
		h := Time(horizon)
		wantLog, wantMid, wantEnd, wantStats := fuzzRun(t, n, h, prog, true)
		gotLog, gotMid, gotEnd, gotStats := fuzzRun(t, n, h, prog, false)
		if gotLog != wantLog {
			t.Fatalf("n=%d h=%d: sharded log diverged\n--- serial ---\n%s--- sharded ---\n%s", n, h, wantLog, gotLog)
		}
		if gotMid != wantMid || gotEnd != wantEnd {
			t.Fatalf("n=%d h=%d: times (%v, %v), serial (%v, %v)", n, h, gotMid, gotEnd, wantMid, wantEnd)
		}
		if gotStats != wantStats {
			t.Fatalf("n=%d h=%d: stats %+v, serial %+v", n, h, gotStats, wantStats)
		}
	})
}
