package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// A twin program is one script per proc, executed either with the blocking
// primitives or with their continuation forms. The two must be the same
// simulation: same events, same order, same counters.
type twinOp struct {
	kind  int  // one of the op* constants
	d     Time // sleep length, wake-up delay, link delay
	links int  // opChain: links before Complete
}

const (
	opSleep     = iota // Sleep(d)
	opPark             // Park, woken by a callback d from now
	opChain            // a chain of links completing by callback
	opChainSync        // a chain completed before Wait is reached
	opBlock            // Sleep(d) on the goroutine in both forms: the continuation form must hand over and re-enter
	nTwinOps
)

func twinScripts(seed int64, procs, steps int) [][]twinOp {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]twinOp, procs)
	for i := range scripts {
		for s := 0; s < steps; s++ {
			scripts[i] = append(scripts[i], twinOp{kind: rng.Intn(nTwinOps), d: Time(rng.Intn(9)), links: 1 + rng.Intn(3)})
		}
	}
	return scripts
}

type twinResult struct {
	log    []string
	stats  EngineStats
	inline uint64
}

// runTwin executes the scripts on a fresh engine. windows == 0 is one
// Run(Forever); otherwise Run(until) is stepped in windows of that length.
func runTwin(scripts [][]twinOp, cont bool, window Time) twinResult {
	e := NewEngine()
	var res twinResult
	// One line per dispatched event: its time, the scheduling counter when it
	// fired (which, by induction over the log, fixes its own seq), and whom
	// it ran.
	e.SetTrace(func(line string) {
		res.log = append(res.log, fmt.Sprintf("seq<=%d %s", e.seq, line))
	})
	for i, script := range scripts {
		i, script := i, script
		e.GoID("twin", int64(i), func(p *Proc) {
			note := func(step int) {
				res.log = append(res.log, fmt.Sprintf("twin%d step %d t=%d seq<=%d", i, step, e.now, e.seq))
			}
			// link issues the remaining links of a chain.
			var link func(c *Chain, left int, d Time)
			link = func(c *Chain, left int, d Time) {
				e.After(d, func() {
					if left == 1 {
						c.Complete()
						return
					}
					link(c, left-1, d)
				})
			}
			wakeIn := func(d Time) { e.After(d, func() { e.Wake(p) }) }
			if !cont {
				for step, op := range script {
					note(step)
					switch op.kind {
					case opSleep, opBlock:
						p.Sleep(op.d)
					case opPark:
						wakeIn(op.d)
						p.Park()
					case opChain:
						c := e.NewChain(p)
						link(c, op.links, op.d)
						c.Wait()
					case opChainSync:
						c := e.NewChain(p)
						c.Complete()
						c.Wait()
					}
				}
				note(len(script))
				return
			}
			step := 0
			var next func()
			next = func() {
				for step < len(script) {
					op := script[step]
					if op.kind == opBlock {
						return // still running: the goroutine takes this one
					}
					note(step)
					step++
					switch op.kind {
					case opSleep:
						p.SleepThen(op.d, next)
					case opPark:
						wakeIn(op.d)
						p.ParkThen(next)
					case opChain:
						c := e.NewChain(p)
						link(c, op.links, op.d)
						c.WaitThen(next)
					case opChainSync:
						c := e.NewChain(p)
						c.Complete()
						c.WaitThen(nil) // done already: released, nothing suspended
						continue
					}
					return
				}
			}
			for {
				next()
				p.Await()
				if step == len(script) {
					break
				}
				note(step)
				p.Sleep(script[step].d)
				step++
			}
			note(len(script))
		})
	}
	if window == 0 {
		e.Run(Forever)
	} else {
		for until := window; e.Live() > 0; until += window {
			e.Run(until)
		}
	}
	res.stats, res.inline = e.Stats(), e.Inline()
	return res
}

// TestContinuationFormIsTheSameSimulation runs a random program of sleeps,
// parks woken by callbacks, chains completing by callback and chains
// completing synchronously, blocking and in continuation form, in one Run
// and in stepped windows: every variant dispatches the
// same events in the same order with the same counters. Only Inline tells
// them apart.
func TestContinuationFormIsTheSameSimulation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		scripts := twinScripts(seed, 12, 40)
		want := runTwin(scripts, false, 0)
		if want.inline != 0 {
			t.Errorf("seed %d: blocking program counts %d inline wake-ups", seed, want.inline)
		}
		for _, window := range []Time{0, 7} {
			for _, cont := range []bool{false, true} {
				got := runTwin(scripts, cont, window)
				name := fmt.Sprintf("seed %d cont %v window %d", seed, cont, window)
				if !slices.Equal(got.log, want.log) {
					for i := range want.log {
						if i >= len(got.log) || got.log[i] != want.log[i] {
							t.Fatalf("%s: dispatch log diverges at line %d of %d:\n got %q\nwant %q",
								name, i, len(want.log), append(got.log, "<end>")[min(i, len(got.log))], want.log[i])
						}
					}
					t.Fatalf("%s: %d log lines, want %d", name, len(got.log), len(want.log))
				}
				if got.stats != want.stats {
					t.Errorf("%s: stats %+v, want %+v", name, got.stats, want.stats)
				}
				if cont && got.inline == 0 {
					t.Errorf("%s: no wake-up ran inline", name)
				}
			}
		}
	}
}

// TestInlineWakeupsNeedNoGoroutine counts them: a proc whose sleeps are all
// in continuation form is resumed once, when the last continuation returns
// without suspending — in place, since it is the only proc.
func TestInlineWakeupsNeedNoGoroutine(t *testing.T) {
	e := NewEngine()
	left, resumed := 100, 0
	e.Go("napper", func(p *Proc) {
		var nap func()
		nap = func() {
			if left > 0 {
				left--
				p.SleepThen(1, nap)
			}
		}
		nap()
		p.Await()
		resumed++
	})
	if end := e.Run(Forever); end != 100 || resumed != 1 {
		t.Errorf("end=%v resumed=%d, want 100 and 1", end, resumed)
	}
	if st := e.Stats(); st.Handoffs != 101 || e.Inline() != 99 || e.InPlace() != 1 {
		t.Errorf("Handoffs=%d Inline=%d InPlace=%d, want 101, 99 and 1", st.Handoffs, e.Inline(), e.InPlace())
	}
}

//go:noinline
func panickingContinuation() { panic("cont boom") }

// TestContinuationPanicNamesItsProc: a continuation runs on whatever
// goroutine is dispatching — its own proc's, another proc's, or Run's caller
// after a horizon — and its panic must come out of Run as the failure of the
// proc it ran as, with every goroutine gone.
func TestContinuationPanicNamesItsProc(t *testing.T) {
	for _, tc := range []struct {
		name       string
		bystanders bool
		horizon    Time
	}{
		{"dispatched by its own goroutine", false, Forever},
		{"dispatched by another proc", true, Forever},
		{"dispatched by Run's caller", false, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			e.Go("victim", func(p *Proc) {
				p.SleepThen(10, panickingContinuation)
				p.Await()
				t.Error("victim resumed after its continuation panicked")
			})
			if tc.bystanders {
				e.Go("parked", func(p *Proc) { p.Park() })
				e.Go("sleeper", func(p *Proc) { p.Sleep(100) }) // suspends last: dispatches t=10
			}
			defer func() {
				pp, ok := recover().(*ProcPanic)
				if !ok {
					t.Fatalf("Run did not panic with a *ProcPanic")
				}
				if pp.Proc != "victim" || pp.T != 10 || pp.Value != "cont boom" {
					t.Errorf("ProcPanic = %q t=%v value=%v, want victim/10/cont boom", pp.Proc, pp.T, pp.Value)
				}
				if e.Live() != 0 {
					t.Errorf("%d procs alive after failed run", e.Live())
				}
				if n := countGoroutines(base); n > base {
					t.Errorf("goroutines leaked: %d > %d baseline", n, base)
				}
			}()
			if tc.horizon != Forever {
				e.Run(tc.horizon)
			}
			e.Run(Forever)
			t.Fatal("Run returned normally despite continuation panic")
		})
	}
}

// TestShutdownUnwindsContinuationForm cuts a run at a horizon with procs
// suspended in each continuation form, some mid-way through a string of
// inline wake-ups, and shuts down: no continuation runs afterwards, no proc
// and no goroutine is left.
func TestShutdownUnwindsContinuationForm(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	ran := 0
	for i := 0; i < 8; i++ {
		i := i
		e.GoID("sleeper", int64(i), func(p *Proc) {
			var again func()
			again = func() { ran++; p.SleepThen(Time(3+i), again) }
			again()
			p.Await()
			t.Error("sleeper resumed")
		})
		e.GoID("parker", int64(i), func(p *Proc) {
			p.ParkThen(func() { t.Error("parker woken") })
			p.Await()
		})
		e.GoID("waiter", int64(i), func(p *Proc) {
			c := e.NewChain(p)
			c.Then(1000, c.Complete)
			c.WaitThen(func() { t.Error("chain completed") })
			p.Await()
		})
	}
	if end := e.Run(50); end != 50 || e.Inline() == 0 || e.Parked() != 16 {
		t.Errorf("Run(50) = %v with %d inline wake-ups and %d parked, want 50, some and 16", end, e.Inline(), e.Parked())
	}
	before := ran
	e.Shutdown()
	if e.Live() != 0 || ran != before {
		t.Errorf("after Shutdown: %d live, %d continuations ran", e.Live(), ran-before)
	}
	if n := countGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}

// TestSuspendingTwiceFailsFast: a proc that has suspended may not suspend
// again before its wake-up — the goroutine owes the engine an Await.
func TestSuspendingTwiceFailsFast(t *testing.T) {
	e := NewEngine()
	e.Go("twice", func(p *Proc) {
		p.SleepThen(1, nil)
		p.SleepThen(1, nil)
	})
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok || pp.Proc != "twice" {
			t.Fatalf("recovered %v, want a *ProcPanic of proc twice", pp)
		}
		if e.Live() != 0 {
			t.Errorf("%d procs alive after failed run", e.Live())
		}
	}()
	e.Run(Forever)
	t.Fatal("Run returned normally")
}
