package bot

import (
	"testing"

	"contsteal/internal/sim"
)

// serveExpandN: a task with Depth d > 0 yields Desc[0] children of depth
// d-1, so a root with fanout f and depth d expands to Σ f^i tasks.
func serveExpandN(t Task) []Task {
	if t.Depth <= 0 {
		return nil
	}
	out := make([]Task, int(t.Desc[0]))
	for i := range out {
		out[i] = t
		out[i].Depth = t.Depth - 1
	}
	return out
}

func serveNodes(fanout, depth int) int64 {
	n, pow := int64(0), int64(1)
	for d := 0; d <= depth; d++ {
		n += pow
		pow *= int64(fanout)
	}
	return n
}

func serveTask(id byte, fanout, depth int) Task {
	var t Task
	t.Desc[0] = byte(fanout)
	t.Desc[1] = id
	t.Depth = int32(depth)
	return t
}

type botRunner struct {
	name string
	run  func(cfg Config, root Task, expand Expand) Stats
}

func botRunners() []botRunner {
	return []botRunner{
		{"saws", RunSAWS},
		{"charm", RunCharm},
		{"glb", RunGLB},
	}
}

// TestBotServeDrains: every runtime processes exactly the injected task
// DAGs and terminates structurally (no termination-detection protocol).
func TestBotServeDrains(t *testing.T) {
	arrivals := []ServeArrival{
		{At: 0, Rank: 0, Task: serveTask(1, 3, 2)},
		{At: 500, Rank: 1, Task: serveTask(2, 2, 3)},
		{At: 500, Rank: 2, Task: serveTask(3, 1, 0)},
		{At: 9000, Rank: 3, Task: serveTask(4, 3, 3)},
	}
	wantTasks := serveNodes(3, 2) + serveNodes(2, 3) + serveNodes(1, 0) + serveNodes(3, 3)
	for _, r := range botRunners() {
		var onTask int64
		var lastNow sim.Time
		cfg := Config{Workers: 4, Seed: 5, Work: 190, MaxTime: sim.Second}
		cfg.Serve = &Serve{
			Arrivals: arrivals,
			OnTask: func(task Task, children int, now sim.Time) {
				onTask++
				if now < lastNow {
					t.Errorf("%s: OnTask times went backwards: %v after %v", r.name, now, lastNow)
				}
				lastNow = now
			},
		}
		st := r.run(cfg, Task{}, serveExpandN)
		if st.Tasks != wantTasks {
			t.Errorf("%s: processed %d tasks, want %d", r.name, st.Tasks, wantTasks)
		}
		if onTask != wantTasks {
			t.Errorf("%s: OnTask fired %d times, want %d", r.name, onTask, wantTasks)
		}
		if st.Exec < 9000 {
			t.Errorf("%s: Exec %v precedes the last arrival", r.name, st.Exec)
		}
	}
}

// TestBotServeDeterministic: identical serve configurations yield identical
// stats and identical OnTask streams.
func TestBotServeDeterministic(t *testing.T) {
	arrivals := make([]ServeArrival, 24)
	for i := range arrivals {
		arrivals[i] = ServeArrival{
			At:   sim.Time(i) * 700,
			Rank: i % 4,
			Task: serveTask(byte(i), 1+i%3, i%4),
		}
	}
	for _, r := range botRunners() {
		type ev struct {
			id byte
			at sim.Time
		}
		run := func() (Stats, []ev) {
			var evs []ev
			cfg := Config{Workers: 4, Seed: 5, Work: 190, MaxTime: sim.Second}
			cfg.Serve = &Serve{Arrivals: arrivals, OnTask: func(task Task, children int, now sim.Time) {
				evs = append(evs, ev{task.Desc[1], now})
			}}
			return r.run(cfg, Task{}, serveExpandN), evs
		}
		st1, evs1 := run()
		st2, evs2 := run()
		if st1 != st2 {
			t.Errorf("%s: stats differ across identical runs:\n%+v\n%+v", r.name, st1, st2)
		}
		if len(evs1) != len(evs2) {
			t.Fatalf("%s: OnTask streams differ in length", r.name)
		}
		for i := range evs1 {
			if evs1[i] != evs2[i] {
				t.Errorf("%s: OnTask stream diverges at %d: %+v vs %+v", r.name, i, evs1[i], evs2[i])
				break
			}
		}
	}
}

// TestBotServePerRequestAccounting exercises the exact seam the serve
// harness uses: ServeTask-encoded request DAGs expanded by ServeExpand,
// with per-request remaining-node counters decremented from OnTask via
// ServeTaskID. Every request must drain to exactly zero with nondecreasing
// completion instants per the OnTask ordering contract.
func TestBotServePerRequestAccounting(t *testing.T) {
	type req struct {
		id            int64
		fanout, depth int
	}
	reqs := []req{{11, 3, 2}, {12, 2, 3}, {13, 1, 0}, {14, 4, 1}}
	for _, r := range botRunners() {
		remaining := map[int64]int64{}
		var arrivals []ServeArrival
		for i, q := range reqs {
			remaining[q.id] = serveNodes(q.fanout, q.depth)
			arrivals = append(arrivals, ServeArrival{
				At:   sim.Time(i) * 400,
				Rank: i % 4,
				Task: ServeTask(q.id, q.fanout, q.depth),
			})
		}
		done := map[int64]sim.Time{}
		var lastNow sim.Time
		cfg := Config{Workers: 4, Seed: 5, Work: 190, MaxTime: sim.Second}
		cfg.Serve = &Serve{
			Arrivals: arrivals,
			OnTask: func(task Task, children int, now sim.Time) {
				id := ServeTaskID(task)
				if now < lastNow {
					t.Errorf("%s: OnTask out of dispatch order: %v after %v", r.name, now, lastNow)
				}
				lastNow = now
				remaining[id]--
				if remaining[id] == 0 {
					done[id] = now
				}
			},
		}
		r.run(cfg, Task{}, ServeExpand)
		for _, q := range reqs {
			if remaining[q.id] != 0 {
				t.Errorf("%s: request %d has %d unprocessed nodes", r.name, q.id, remaining[q.id])
			}
			if _, ok := done[q.id]; !ok {
				t.Errorf("%s: request %d never completed", r.name, q.id)
			}
		}
	}
}

// TestBotServeHorizonCut: a horizon inside the trace cuts the run without
// panicking; arrivals at/after the horizon never inject.
func TestBotServeHorizonCut(t *testing.T) {
	arrivals := []ServeArrival{
		{At: 0, Rank: 0, Task: serveTask(1, 3, 3)},
		{At: 100, Rank: 1, Task: serveTask(2, 3, 3)},
		{At: 50000, Rank: 2, Task: serveTask(3, 1, 0)}, // past the horizon
	}
	for _, r := range botRunners() {
		var processed int64
		cfg := Config{Workers: 4, Seed: 5, Work: 190, MaxTime: sim.Second}
		cfg.Serve = &Serve{
			Arrivals: arrivals,
			Horizon:  2 * sim.Microsecond,
			OnTask:   func(Task, int, sim.Time) { processed++ },
		}
		st := r.run(cfg, Task{}, serveExpandN)
		if st.Exec != 2*sim.Microsecond {
			t.Errorf("%s: Exec %v, want the %v horizon", r.name, st.Exec, 2*sim.Microsecond)
		}
		if processed >= 2*serveNodes(3, 3) {
			t.Errorf("%s: %d tasks processed, expected a cut below %d", r.name, processed, 2*serveNodes(3, 3))
		}
	}
}

// TestBotServeHorizonCutDrainsInjected: with the arrivals before the horizon
// done, the run drains there — the last of them made the system's accounting
// complete — and an arrival exactly at the horizon never enters it.
func TestBotServeHorizonCutDrainsInjected(t *testing.T) {
	const horizon = 50 * sim.Microsecond
	arrivals := []ServeArrival{
		{At: 0, Rank: 0, Task: serveTask(1, 2, 2)},
		{At: 100, Rank: 1, Task: serveTask(2, 2, 1)},
		{At: horizon, Rank: 2, Task: serveTask(3, 1, 0)},
	}
	for _, r := range botRunners() {
		perRequest := map[byte]int64{}
		cfg := Config{Workers: 4, Seed: 5, Work: 190, MaxTime: sim.Second}
		cfg.Serve = &Serve{
			Arrivals: arrivals,
			Horizon:  horizon,
			OnTask:   func(task Task, _ int, _ sim.Time) { perRequest[task.Desc[1]]++ },
		}
		st := r.run(cfg, Task{}, serveExpandN)
		if perRequest[1] != serveNodes(2, 2) || perRequest[2] != serveNodes(2, 1) || perRequest[3] != 0 {
			t.Errorf("%s: tasks per request %v, want 1:%d 2:%d and none of 3", r.name, perRequest, serveNodes(2, 2), serveNodes(2, 1))
		}
		if st.Exec >= horizon {
			t.Errorf("%s: Exec %v, want a drain before the %v horizon", r.name, st.Exec, horizon)
		}
	}
}

// TestBotServeEmpty: an empty trace terminates immediately.
func TestBotServeEmpty(t *testing.T) {
	for _, r := range botRunners() {
		cfg := Config{Workers: 2, Seed: 5, MaxTime: sim.Second}
		cfg.Serve = &Serve{}
		st := r.run(cfg, Task{}, serveExpandN)
		if st.Tasks != 0 {
			t.Errorf("%s: %d tasks on an empty trace", r.name, st.Tasks)
		}
	}
}

// TestBotServeUnsortedPanics: serve traces must be time-sorted.
func TestBotServeUnsortedPanics(t *testing.T) {
	cfg := Config{Workers: 2, Seed: 5, MaxTime: sim.Second}
	cfg.Serve = &Serve{Arrivals: []ServeArrival{
		{At: 100, Rank: 0, Task: serveTask(1, 1, 0)},
		{At: 50, Rank: 1, Task: serveTask(2, 1, 0)},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted serve trace did not panic")
		}
	}()
	RunSAWS(cfg, Task{}, serveExpandN)
}
