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
	"slices"
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
// the function that builds and runs the engine under the Options RunJobs
// hands it. Run must be self-contained (construct its own workload and
// runtime, make its own tweaks to o) so jobs share no mutable state.
// Baseline marks a job that runs a bag-of-tasks model (saws, charm, glb)
// rather than the fork-join runtime; it is never the observed run.
type Job struct {
	Coord
	Baseline bool
	Run      func(o Options) any
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

// Observer is the one sink of an invocation's host-side reports. It rides
// on Options — the manifest Runner gives each entry its own — so two
// invocations never share one; a nil Observer observes nothing. RunJobs
// fills it as jobs finish, serialized across pool workers, so Progress may
// write to a stream without locking and the fields below are complete once
// the sweep returns.
//
// One run of the sweep is observed: the lowest-index job that builds the
// fork-join runtime, chosen from the job list alone, so it is the same run
// at every -parallel width. Its metrics registry is always built, its event
// trace when Trace is set.
type Observer struct {
	// Progress, when non-nil, is invoked after each job of a sweep finishes:
	// done is the number of completed jobs so far, total the grid size, wall
	// the job's host-side execution time.
	Progress func(done, total int, c Coord, wall time.Duration)
	// Trace asks the observed run to record its event trace.
	Trace bool

	// Runs counts the fork-join runs; Events, Handoffs, InPlace and Inline
	// sum their engine counters (st.Engine, see sim.EngineStats, st.InPlace
	// and st.Inline).
	Runs                              int
	Events, Handoffs, InPlace, Inline uint64
	// Coord, Stats (with its registry in Stats.Obs) and Log (nil unless
	// Trace) describe the observed run; Stats.Obs is nil until one ran.
	Coord Coord
	Stats core.RunStats
	Log   *core.Trace
}

// ProgressLines is the Progress callback cmd/repro shows: one
// "[done/total] coordinates (wall)" line per finished job on w.
func ProgressLines(w io.Writer) func(done, total int, c Coord, wall time.Duration) {
	return func(done, total int, c Coord, wall time.Duration) {
		fmt.Fprintf(w, "[%d/%d] %s (%.2fs)\n", done, total, c, wall.Seconds())
	}
}

// A jobRun is where a job's fork-join run reports: the job's goroutine
// fills it, and RunJobs folds it into the Observer once the job finished.
type jobRun struct {
	observe bool // this job is the sweep's observed run
	ran     bool
	stats   core.RunStats
	log     *core.Trace
}

// add folds one finished job's run into the observer.
func (ob *Observer) add(c Coord, jr *jobRun) {
	if !jr.ran {
		return
	}
	ob.Runs++
	ob.Events += jr.stats.Engine.Events
	ob.Handoffs += jr.stats.Engine.Handoffs
	ob.InPlace += jr.stats.InPlace
	ob.Inline += jr.stats.Inline
	if jr.observe {
		ob.Coord, ob.Stats, ob.Log = c, jr.stats, jr.log
	}
}

// RunJobs executes the grid on a bounded pool of o.Parallel goroutines
// (<= 0 selects runtime.NumCPU()), each job under its own copy of o, and
// returns the Run results indexed exactly like jobs — grid order,
// independent of completion order — reporting each finished job to
// o.Observer, whose observed run is the first job not marked Baseline. If a
// job panics, the remaining queued jobs are abandoned, in-flight jobs are
// drained (the pool never hangs), and RunJobs re-panics with a *JobError
// carrying the diverging job's coordinates, its cause and the panicking
// stack. That barrier holds at every pool width: a pool of 1 runs the jobs
// one after another in grid order — the reference the wider pools must
// match — and fails the same way. Of several failed jobs the lowest-index
// one is reported: jobs are dispatched in grid order, so every job before it
// ran, and it is the one a pool of 1 stops at.
func RunJobs(o Options, jobs []Job) []any {
	pool := o.Parallel
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	ob := o.Observer
	runs := make([]jobRun, len(jobs))
	if i := slices.IndexFunc(jobs, func(j Job) bool { return !j.Baseline }); i >= 0 && ob != nil {
		runs[i].observe = true
	}
	results := make([]any, len(jobs))
	done := 0
	finish := func(i int, r any, start time.Time) {
		results[i] = r
		done++
		if ob == nil {
			return
		}
		ob.add(jobs[i].Coord, &runs[i])
		if ob.Progress != nil {
			ob.Progress(done, len(jobs), jobs[i].Coord, time.Since(start))
		}
	}

	if pool > len(jobs) {
		pool = len(jobs)
	}
	var (
		mu       sync.Mutex // guards finish, failed and failedAt
		failed   *JobError
		failedAt int // the index of failed's job
		next     = make(chan int)
		wg       sync.WaitGroup
	)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				oj := o
				oj.run = &runs[i]
				r, err := runOneRecover(jobs[i], oj)
				mu.Lock()
				if err != nil {
					if failed == nil || i < failedAt {
						failed, failedAt = err, i
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

// runOneRecover executes a job under o behind the per-job panic barrier.
func runOneRecover(j Job, o Options) (r any, err *JobError) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			err = &JobError{Coord: j.Coord, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return j.Run(o), nil
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
