package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzServeArrivals: for arbitrary seeds and grid shapes, the parallel
// sweep must be byte-identical (JSON-marshalled rows) to the
// single-threaded oracle, and every cell must conserve requests.
func FuzzServeArrivals(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0), uint8(0))
	f.Add(int64(2), uint8(24), uint8(1), uint8(1))
	f.Add(int64(7), uint8(8), uint8(0), uint8(1))
	f.Add(int64(11), uint8(40), uint8(1), uint8(0))
	f.Add(int64(42), uint8(12), uint8(0), uint8(0))
	f.Add(int64(-3), uint8(20), uint8(1), uint8(1))
	f.Add(int64(1<<40), uint8(32), uint8(0), uint8(1))
	f.Add(int64(987654321), uint8(28), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nReq, procSel, admitSel uint8) {
		if seed == 0 {
			seed = 1 // 0 means "use the default" in Options
		}
		p := ServeParams{
			Requests:  8 + int(nReq%48),
			Loads:     []float64{0.5, 2},
			Systems:   []string{"ours", "saws", "charm", "glb"},
			Processes: []string{[]string{"poisson", "mmpp"}[procSel%2]},
			Admits:    []string{[]string{"always", "token"}[admitSel%2]},
		}
		oracle := Options{Machine: "itoa", Workers: 18, Seed: seed}
		want := Serve(oracle, p)

		par := oracle
		par.Parallel = 8
		got := Serve(par, p)

		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Fatalf("parallel sweep diverged from the oracle:\noracle %s\n   got %s", wj, gj)
		}
		for _, r := range want {
			if r.Admitted+r.Rejected != uint64(r.Requests) || r.Completed+r.InFlight != r.Admitted {
				t.Fatalf("conservation violated: %+v", r)
			}
		}
	})
}
