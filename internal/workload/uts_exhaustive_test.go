//go:build exhaustive

package workload

import (
	"runtime"
	"sync"
	"testing"
)

// TestLogOneMinusUMonotone checks, for all 2³² draw bits v, that
// logOneMinusU(v) = log(1 − v/2³²) never increases with v. That is what
// makes the child-count draw monotone in v, so that the threshold rows
// (drawRows) reproduce the float draw exactly; TestDrawRowsMatchFloat checks
// the rows only at thresholds and sampled points. The sweep is split across
// GOMAXPROCS goroutines and takes 20–30 s on two 2.1 GHz Xeon vCPUs, so
// it sits behind the exhaustive build tag and runs from the test tier of
// scripts/ci.sh:
//
//	go test -tags exhaustive -run TestLogOneMinusUMonotone ./internal/workload
func TestLogOneMinusUMonotone(t *testing.T) {
	const n = uint64(1) << 32
	parts := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for p := uint64(0); p < parts; p++ {
		lo, hi := n*p/parts, n*(p+1)/parts
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lo > 0 {
				lo-- // overlap one value so no pair straddling two parts is skipped
			}
			prev := logOneMinusU(uint32(lo))
			for v := lo + 1; v < hi; v++ {
				cur := logOneMinusU(uint32(v))
				if cur > prev {
					t.Errorf("log(1 − v/2³²) rises at v = %#x: %v → %v", v, prev, cur)
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
}
