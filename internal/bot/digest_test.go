package bot

import (
	"encoding/binary"
	"fmt"
	"testing"

	"contsteal/internal/digest"
	"contsteal/internal/sim"
	"contsteal/internal/topo"
)

// botDigest is what one cell pins: every field of Stats and, for serve
// cells, a SHA-256 over the OnTask stream (request id, children, now).
type botDigest struct {
	Stats  Stats  `json:"stats"`
	OnTask string `json:"on_task_sha256,omitempty"`
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
			var stream []byte
			onTask := func(task Task, children int, now sim.Time) {
				for _, v := range []int64{ServeTaskID(task), int64(children), int64(now)} {
					stream = binary.LittleEndian.AppendUint64(stream, uint64(v))
				}
			}
			cfg := Config{Machine: topo.ITOA(), Workers: 8, Seed: 3, Work: 190, MaxTime: sim.Second}
			// Widening gaps: the first requests overlap (steals), the last
			// find a drained system (idle polling, lifeline quiescence).
			cfg.Serve = &Serve{Horizon: horizon, OnTask: onTask}
			for i := 0; i < 24; i++ {
				at, rank := sim.Time(i*i)*500*sim.Nanosecond, (i*5)%cfg.Workers
				cfg.Serve.Arrivals = append(cfg.Serve.Arrivals, ServeArrival{At: at, Rank: rank, Task: ServeTask(int64(i), 3, 3)})
			}
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
			got[cell] = botDigest{Stats: st, OnTask: digest.SHA256(stream)}
		}
	}
	digest.Check(t, "testdata/bot_digests.json", got)
}
