package bot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/bot_digests.json")

const botDigestFile = "testdata/bot_digests.json"

// botDigest is what one cell pins: every field of Stats and, for serve
// cells, a SHA-256 over the OnTask stream (request id, children, now).
type botDigest struct {
	Stats  Stats  `json:"stats"`
	OnTask string `json:"on_task_sha256,omitempty"`
}

// digestServe is the 24-arrival trace of the serve cells: widening gaps, so
// the first requests overlap (steals) and the last find a drained system
// (idle polling, lifeline quiescence).
func digestServe(workers int, horizon sim.Time, onTask func(Task, int, sim.Time)) *Serve {
	sv := &Serve{Horizon: horizon, OnTask: onTask}
	for i := 0; i < 24; i++ {
		sv.Arrivals = append(sv.Arrivals, ServeArrival{
			At:   sim.Time(i*i) * 500 * sim.Nanosecond,
			Rank: (i * 5) % workers,
			Task: ServeTask(int64(i), 3, 3),
		})
	}
	return sv
}

// TestBotDigests pins what the fig8/serve/resilience goldens see only
// through a few columns: for each baseline × {closed tiny UTS tree at 4 and
// at 72 workers (two ITO-A nodes), the same under drops and jitter, a
// 24-arrival serve trace drained, the same trace cut by a horizon} every
// Stats field and the serve completion stream. The digests were recorded
// before the Charm/GLB bodies, the termination detector, the epilogue and
// the task codec were folded into single paths and must only ever change
// together with the goldens.
func TestBotDigests(t *testing.T) {
	root, expand, nodes := utsExpand(tinyTree())
	got := map[string]botDigest{}
	for _, system := range []string{"saws", "charm", "glb"} {
		for _, workers := range []int{4, 72} {
			for _, perturbed := range []bool{false, true} {
				cfg := Config{Machine: topo.ITOA(), Workers: workers, Seed: 3, Work: 190, MaxTime: 120 * sim.Second}
				cell := fmt.Sprintf("%s/uts/%dw", system, workers)
				if perturbed {
					cfg.Machine.Perturb = &topo.Perturb{DropProb: 0.1, LatencyJitter: 0.5, Seed: 1}
					cell += "/perturbed"
				}
				st := Run(system, cfg, root, expand)
				if st.Tasks != nodes {
					t.Errorf("%s: processed %d tasks, want %d", cell, st.Tasks, nodes)
				}
				if perturbed && system != "saws" && st.Retransmits == 0 {
					t.Errorf("%s: no retransmits, want the drop path exercised", cell)
				}
				got[cell] = botDigest{Stats: st}
			}
		}
		var drained int64
		for _, horizon := range []sim.Time{0, 150 * sim.Microsecond} {
			h := sha256.New()
			onTask := func(task Task, children int, now sim.Time) {
				var rec [24]byte
				binary.LittleEndian.PutUint64(rec[0:], uint64(ServeTaskID(task)))
				binary.LittleEndian.PutUint64(rec[8:], uint64(children))
				binary.LittleEndian.PutUint64(rec[16:], uint64(now))
				h.Write(rec[:])
			}
			cfg := Config{Machine: topo.ITOA(), Workers: 8, Seed: 3, Work: 190, MaxTime: sim.Second}
			cfg.Serve = digestServe(cfg.Workers, horizon, onTask)
			st := Run(system, cfg, Task{}, ServeExpand)
			cell := system + "/serve/drained"
			if horizon > 0 {
				cell = system + "/serve/horizon"
				if st.Tasks == 0 || st.Tasks >= drained || st.Exec != horizon {
					t.Errorf("%s: %d tasks by %v (drained run: %d), want a real cut at %v",
						cell, st.Tasks, st.Exec, drained, horizon)
				}
			} else {
				drained = st.Tasks
				if want := int64(24 * 40); st.Tasks != want {
					t.Errorf("%s: processed %d tasks, want %d", cell, st.Tasks, want)
				}
			}
			got[cell] = botDigest{Stats: st, OnTask: hex.EncodeToString(h.Sum(nil))}
		}
	}
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(botDigestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(botDigestFile)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/bot -run TestBotDigests -update)", err)
	}
	want := map[string]botDigest{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", botDigestFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the test runs %d", botDigestFile, len(want), len(got))
	}
	for cell, g := range got {
		if w := want[cell]; g != w {
			t.Errorf("%s: got %+v, recorded %+v", cell, g, w)
		}
	}
}
