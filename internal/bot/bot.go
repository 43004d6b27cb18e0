// Package bot implements the bag-of-tasks (BoT) runtimes that the paper's
// UTS evaluation (Fig. 8) compares against:
//
//   - SAWSLike — RDMA-based work stealing with a steal-half split queue and
//     packed atomic metadata, after SAWS (Cartier, Dinan, Larkins, ICPP '21)
//     and Scioto (Dinan et al., SC '09);
//   - CharmLike — two-sided message-driven work stealing, after the
//     Charm++/ParSSSE UTS implementation;
//   - GLBLike — lifeline-based global load balancing, after X10/GLB
//     (Saraswat et al., PPoPP '11; Zhang et al., PPAA '14).
//
// A BoT task is a flat record with no dependencies: "task dependency cannot
// be described" (§I). Each runtime executes an Expand function over tasks
// until global termination, which — unlike the fork-join runtime, whose
// completion is structural — requires a distributed termination-detection
// protocol (token ring with Mattern-style counting for the one-sided
// runtime; coordinator-based counting for the message-driven ones).
package bot

import (
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

// Expand processes a task and returns the tasks it creates (e.g. the
// children of a UTS node). It must be deterministic and side-effect free.
type Expand func(Task) []Task

const (
	// pollEvery is how many tasks a worker processes between message polls
	// (two-sided runtimes only). Coarser polling amortizes handler costs
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

// Throughput returns tasks per second of virtual time.
func (s Stats) Throughput() float64 {
	if s.Exec <= 0 {
		return 0
	}
	return float64(s.Tasks) / s.Exec.Seconds()
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

// localQueue is a simple LIFO work buffer used by all three runtimes.
type localQueue struct {
	tasks []Task
}

func (q *localQueue) push(t Task) { q.tasks = append(q.tasks, t) }
func (q *localQueue) len() int    { return len(q.tasks) }
func (q *localQueue) empty() bool { return len(q.tasks) == 0 }
func (q *localQueue) pop() (Task, bool) {
	if len(q.tasks) == 0 {
		return Task{}, false
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t, true
}

// popOldest removes up to k tasks from the steal end (FIFO side).
func (q *localQueue) popOldest(k int) []Task {
	if k > len(q.tasks) {
		k = len(q.tasks)
	}
	out := append([]Task(nil), q.tasks[:k]...)
	q.tasks = append(q.tasks[:0], q.tasks[k:]...)
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
