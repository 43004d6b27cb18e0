// Package bot implements the bag-of-tasks (BoT) runtimes that the paper's
// UTS evaluation (Fig. 8) compares against:
//
//   - SAWS-like — RDMA-based work stealing with a steal-half split queue and
//     packed atomic metadata, after SAWS (Cartier, Dinan, Larkins, ICPP '21)
//     and Scioto (Dinan et al., SC '09);
//   - GLB-like — two-sided message-driven work stealing with a lifeline
//     stage, after X10/GLB (Saraswat et al., PPoPP '11; Zhang et al.,
//     PPAA '14);
//   - Charm-like — the same two-sided runtime without the lifeline stage,
//     after the Charm++/ParSSSE UTS implementation.
//
// A BoT task is a flat record with no dependencies: "task dependency cannot
// be described" (§I). Each runtime executes an Expand function over tasks
// until global termination, which — unlike the fork-join runtime, whose
// completion is structural — requires a distributed termination-detection
// protocol: all three circulate one token ring with Mattern's four-counter
// method (tokenRing), the one-sided runtime through an RDMA slot, the
// two-sided runtime as a message that advances only as fast as workers poll.
package bot

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// Task is one unit of work: a 20-byte descriptor (e.g. a UTS node hash)
// plus its depth. TaskBytes is its wire size.
type Task struct {
	Desc  [20]byte
	Depth int32
}

// TaskBytes is the serialized size of a Task.
const TaskBytes = 24

// encodeTask writes t's wire form (descriptor, then little-endian depth)
// into b[:TaskBytes]; decodeTask reads it back. Queue slots in registered
// memory and work messages share the layout.
func encodeTask(b []byte, t Task) {
	copy(b[:20], t.Desc[:])
	binary.LittleEndian.PutUint32(b[20:], uint32(t.Depth))
}

func decodeTask(b []byte) Task {
	var t Task
	copy(t.Desc[:], b[:20])
	t.Depth = int32(binary.LittleEndian.Uint32(b[20:]))
	return t
}

// Expand processes a task and returns the tasks it creates (e.g. the
// children of a UTS node). It must be deterministic and side-effect free.
type Expand func(Task) []Task

const (
	// pollEvery is how many tasks a worker processes between message polls
	// (two-sided runtime only). Coarser polling amortizes handler costs
	// but lengthens steal response time.
	pollEvery = 16
	// stealHalfMax caps how many tasks a single steal can take.
	stealHalfMax = 1024
	// randomSteals is the number of random victim attempts before a GLB
	// worker retreats to its lifelines (the "w" parameter; X10/GLB uses 1).
	// The lifeline graph itself is the hypercube: ⌈log2 P⌉ neighbours.
	randomSteals = 2
)

// Config parameterizes a BoT runtime.
type Config struct {
	Machine *topo.Machine
	Workers int
	Seed    int64
	// Work is the per-task compute cost on the reference machine.
	Work sim.Time
	// MaxTime aborts a run that fails to terminate.
	MaxTime sim.Time
	// Serve, when non-nil, switches the runtime into open-system mode: the
	// bootstrap root is ignored, arrivals are injected by engine timers, and
	// termination detection is bypassed (see Serve).
	Serve *Serve
}

func (c *Config) defaults() {
	if c.Machine == nil {
		c.Machine = topo.ITOA()
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Work <= 0 {
		c.Work = 190
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 300 * sim.Second
	}
}

// Stats is the result of one BoT run.
type Stats struct {
	Exec       sim.Time
	Tasks      int64 // tasks processed (== nodes visited for UTS)
	StealsOK   uint64
	StealsFail uint64
	StolenTsks uint64 // tasks moved by successful steals
	Msgs       uint64 // messages handled (two-sided runtimes)
	// Dropped/Retransmits count injected message losses and their recovery
	// resends (two-sided runtimes under fault injection; see topo.Perturb).
	Dropped     uint64
	Retransmits uint64
	// TermDelay is the time between the last task completing and global
	// termination being detected.
	TermDelay sim.Time
}

// Run executes root under the runtime named system: "saws", "charm" or
// "glb". Callers validate the name; an unknown one is a programming error.
func Run(system string, cfg Config, root Task, expand Expand) Stats {
	switch system {
	case "saws":
		return RunSAWS(cfg, root, expand)
	case "charm":
		return RunCharm(cfg, root, expand)
	case "glb":
		return RunGLB(cfg, root, expand)
	}
	panic("bot: unknown system " + system)
}

// run is what the runtimes share besides their transport: the engine, the
// statistics, the open-system state and rank 0's termination detector.
type run struct {
	name string // "saws", "charm" or "glb": proc-name prefix and diagnostics
	cfg  Config
	eng  *sim.Engine
	sv   *serveState // nil in closed mode
	st   Stats
	ring tokenRing

	lastTask, doneAt sim.Time
}

func newRun(name string, cfg Config) *run {
	cfg.defaults()
	return &run{name: name, cfg: cfg, eng: sim.NewEngine(), ring: tokenRing{-1, -1}}
}

// arm switches the run into open-system mode when cfg.Serve is set: inject
// places each arrival into its target worker's queue, the bootstrap root is
// skipped, the token never circulates and drain is detected structurally.
func (r *run) arm(inject func(a ServeArrival)) {
	if r.cfg.Serve != nil {
		r.sv = newServeState(r.cfg.Serve, r.eng, inject)
	}
}

// drained reports whether an open-system run has nothing left to do.
func (r *run) drained() bool { return r.sv != nil && r.sv.finished }

// taskDone books one processed task whose expansion produced children tasks.
func (r *run) taskDone(t Task, children int, now sim.Time) {
	r.st.Tasks++
	r.lastTask = now
	if r.sv != nil {
		r.sv.taskDone(t, children, now)
	}
}

// finish runs the engine to global termination, drain or the serve horizon
// and returns the statistics; a closed run still live at MaxTime panics.
func (r *run) finish() Stats {
	end := r.eng.Run(serveUntil(r.cfg))
	if r.eng.Live() > 0 {
		r.eng.Shutdown()
		if !r.sv.horizonCut(end) {
			panic(fmt.Sprintf("bot: %s did not terminate by %v", r.name, r.cfg.MaxTime))
		}
	}
	r.st.Exec = end
	if r.doneAt > r.lastTask {
		r.st.TermDelay = r.doneAt - r.lastTask
	}
	return r.st
}

// token is the termination token: the round number and the sums of tasks
// created and completed over the ranks it has visited this round.
type token struct{ round, pushed, processed int64 }

// tokenRing is rank 0's side of the four-counter termination detector. The
// token travels rank r → (r+1) mod P; a rank holds it while busy and passes
// it on once idle, its own cumulative counters added, so a round whose sums
// balance and equal the previous round's implies a globally idle period
// (Mattern). It remembers the previous round's sums.
type tokenRing struct{ prevPushed, prevProcessed int64 }

// pass is an idle rank's turn with tk, which already includes the rank's own
// counters: every rank but 0 forwards it as is; rank 0 closes the round,
// reporting termination or starting the next round with an empty token.
func (r *tokenRing) pass(rank int, tk token) (next token, done bool) {
	if rank != 0 {
		return tk, false
	}
	if tk.round > 1 && tk.pushed == tk.processed && tk.pushed == r.prevPushed && tk.processed == r.prevProcessed {
		return tk, true
	}
	r.prevPushed, r.prevProcessed = tk.pushed, tk.processed
	return token{round: tk.round + 1}, false
}

// doneChildren returns rank's children in the binary tree over which the
// termination signal fans out from rank 0.
func doneChildren(rank, workers int) []int {
	var out []int
	for ch := 2*rank + 1; ch <= 2*rank+2 && ch < workers; ch++ {
		out = append(out, ch)
	}
	return out
}

func newRNG(seed int64, rank int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(rank)*0x5DEECE66D))
}

func pickVictim(rng *rand.Rand, rank, n int) int {
	v := rng.Intn(n - 1)
	if v >= rank {
		v++
	}
	return v
}
