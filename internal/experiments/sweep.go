// Parallel sweep runner: every experiment of this package is a grid of
// fully independent deterministic simulations (variant × benchmark ×
// workers × seed). Each grid point runs its own single-clock DES engine —
// strictly sequential and deterministic *per engine* (see internal/sim) —
// so grid points can execute concurrently on host threads without
// affecting any result. RunJobs provides the bounded worker pool the
// experiment functions share, reassembling rows in grid order regardless
// of completion order so that `-parallel N` output is byte-identical to
// `-parallel 1`.

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"contsteal/internal/core"
)

// Coord pinpoints one job within a sweep grid. Fields that do not apply to
// a given experiment stay zero and are omitted from String.
type Coord struct {
	Experiment string // fig6, table2, fig7, fig8, fig9, table3, fig12
	Bench      string // pfor / recpfor, where applicable
	Tree       string // UTS tree preset, where applicable
	System     string // ours / saws / charm / glb, where applicable
	Variant    string // scheduler variant name, where applicable
	N          int    // problem size, where applicable
	Workers    int    // simulated cores
	Seed       int64
}

// String renders the coordinates as "fig6 bench=pfor variant=greedy N=1024
// workers=72 seed=42" — the identity a diverging run is reported under.
func (c Coord) String() string {
	parts := []string{c.Experiment}
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("bench", c.Bench)
	add("tree", c.Tree)
	add("system", c.System)
	add("variant", c.Variant)
	if c.N != 0 {
		parts = append(parts, fmt.Sprintf("N=%d", c.N))
	}
	parts = append(parts, fmt.Sprintf("workers=%d", c.Workers))
	parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	return strings.Join(parts, " ")
}

// Job is one independent simulation of a sweep: its grid coordinates plus
// the function that builds and runs the engine. Run must be self-contained
// (construct its own workload and runtime) so jobs share no mutable state.
type Job struct {
	Coord
	Run func() any
}

// JobError reports a panic inside one job with the exact grid coordinates
// of the configuration that diverged.
type JobError struct {
	Coord Coord
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking job goroutine
}

func (e *JobError) Error() string {
	return fmt.Sprintf("experiments: job [%s] panicked: %v", e.Coord, e.Value)
}

// Observer receives the host-side reports of one invocation's jobs. It rides
// on Options — manifest.Exec hands it down — so two invocations never share
// one; a nil Observer, or a nil callback, observes nothing. Calls are
// serialized across pool workers and across both callbacks, so a callback
// may write to a stream or accumulate without locking. wall is the job's
// host-side execution time.
type Observer struct {
	// Progress is invoked after each job of a sweep finishes: done is the
	// number of completed jobs so far, total the grid size.
	Progress func(done, total int, c Coord, wall time.Duration)
	// EngineStats is invoked after each fork-join runtime job finishes, with
	// its run statistics — of which the host-side ones matter here: st.Engine
	// (see sim.EngineStats), st.InPlace and st.Inline.
	EngineStats func(c Coord, st core.RunStats, wall time.Duration)

	mu sync.Mutex
}

// ProgressLines is the Progress callback cmd/repro shows: one
// "[done/total] coordinates (wall)" line per finished job on w.
func ProgressLines(w io.Writer) func(done, total int, c Coord, wall time.Duration) {
	return func(done, total int, c Coord, wall time.Duration) {
		fmt.Fprintf(w, "[%d/%d] %s (%.2fs)\n", done, total, c, wall.Seconds())
	}
}

func (ob *Observer) progress(done, total int, c Coord, wall time.Duration) {
	if ob == nil || ob.Progress == nil {
		return
	}
	ob.mu.Lock()
	defer ob.mu.Unlock()
	ob.Progress(done, total, c, wall)
}

func (ob *Observer) engineStats(c Coord, st core.RunStats, wall time.Duration) {
	if ob == nil || ob.EngineStats == nil {
		return
	}
	ob.mu.Lock()
	defer ob.mu.Unlock()
	ob.EngineStats(c, st, wall)
}

// RunJobs executes the grid on a bounded pool of pool goroutines (pool <= 0
// selects runtime.NumCPU()) and returns the Run results indexed exactly
// like jobs — grid order, independent of completion order — reporting each
// finished job to ob. If a job panics, the remaining queued jobs are
// abandoned, in-flight jobs are drained (the pool never hangs), and RunJobs
// re-panics with a *JobError carrying the diverging job's coordinates, its
// cause and the panicking stack. That barrier holds at every pool width: a
// pool of 1 runs the jobs one after another in grid order — the reference
// the wider pools must match — and fails the same way.
func RunJobs(pool int, ob *Observer, jobs []Job) []any {
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	results := make([]any, len(jobs))
	done := 0
	finish := func(i int, r any, start time.Time) {
		results[i] = r
		done++
		ob.progress(done, len(jobs), jobs[i].Coord, time.Since(start))
	}

	if pool > len(jobs) {
		pool = len(jobs)
	}
	var (
		mu     sync.Mutex // guards finish and failed
		failed *JobError
		next   = make(chan int)
		wg     sync.WaitGroup
	)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				r, err := runOneRecover(jobs[i])
				mu.Lock()
				if err != nil {
					if failed == nil {
						failed = err
					}
				} else {
					finish(i, r, start)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		mu.Lock()
		abort := failed != nil
		mu.Unlock()
		if abort {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
	return results
}

// runOneRecover executes a job behind the per-job panic barrier.
func runOneRecover(j Job) (r any, err *JobError) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			err = &JobError{Coord: j.Coord, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return j.Run(), nil
}

// collect asserts every result of RunJobs back to its row type, preserving
// grid order.
func collect[T any](results []any) []T {
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r.(T)
	}
	return out
}
