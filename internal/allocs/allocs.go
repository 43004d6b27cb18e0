// Package allocs counts heap allocations for the repository's allocation
// fences: tests that pin how often a steady-state path allocates.
package allocs

import "runtime"

// Count runs f once to warm up, then runs times more on one P, as
// testing.AllocsPerRun does, and returns the total number of heap allocations
// those runs made. Unlike AllocsPerRun, which divides by the runs and rounds
// the mean down, it cannot report as 0 an allocation that only one run in
// many makes (a ring, a heap or a reused buffer growing).
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
