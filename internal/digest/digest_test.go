package digest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"contsteal/internal/bot"
)

// The cell types of the three committed fixtures. They mirror the types the
// owning tests declare (internal/core policyDigest, internal/bot botDigest,
// cmd/repro traceDigest), which live in test files no other package can
// import; a field added there and not here fails the round trip below.
type policyCell struct {
	Trace       string       `json:"trace_sha256"`
	Metrics     string       `json:"metrics_sha256"`
	Events      uint64       `json:"events"`
	Handoffs    uint64       `json:"handoffs"`
	Callbacks   uint64       `json:"callbacks"`
	Checkpoints []Checkpoint `json:"checkpoints"`
}

type botCell struct {
	Stats  bot.Stats `json:"stats"`
	OnTask string    `json:"on_task_sha256,omitempty"`
}

type traceCell struct {
	Stdout string `json:"stdout_sha256"`
	Err    string `json:"err,omitempty"`
}

// roundTrip decodes file into cells of type T, rejecting any field T lacks,
// rewrites them through Check's -update path and requires the same bytes.
func roundTrip[T any](t *testing.T, file string) {
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	var cells map[string]T
	if err := dec.Decode(&cells); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	out := filepath.Join(t.TempDir(), filepath.Base(file))
	defer func(was bool) { *Update = was }(*Update)
	*Update = true
	Check(t, out, cells)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d cells re-encode to %d bytes, not the committed %d", file, len(cells), len(got), len(want))
	}
}

// TestFixturesRoundTrip: every committed digest fixture is exactly what the
// writer makes of its own decoded cells, so -update on an unchanged tree
// rewrites no byte.
func TestFixturesRoundTrip(t *testing.T) {
	roundTrip[policyCell](t, "../core/testdata/policy_digests.json")
	roundTrip[botCell](t, "../bot/testdata/bot_digests.json")
	roundTrip[traceCell](t, "../../cmd/repro/testdata/trace_digests.json")
}

type statsCell struct {
	Stats struct {
		Tasks       int64
		Retransmits uint64
	} `json:"stats"`
	Trace       string       `json:"trace_sha256"`
	Checkpoints []Checkpoint `json:"checkpoints"`
}

// TestCompareNamesCellAndPath: each kind of difference yields one message
// that names the cell and what moved in it.
func TestCompareNamesCellAndPath(t *testing.T) {
	var base statsCell
	base.Stats.Tasks, base.Stats.Retransmits, base.Trace = 960, 40, "ab"
	base.Checkpoints = []Checkpoint{{T: 100, Hash: "1"}, {T: 250, Hash: "2"}, {T: 400, Hash: "3"}, {T: 420, Hash: "4"}}
	changed := base
	changed.Stats.Retransmits = 41
	diverged := base
	diverged.Checkpoints = append(slices.Clone(base.Checkpoints[:2]), Checkpoint{T: 410, Hash: "x"}, Checkpoint{T: 430, Hash: "y"})
	short := base
	short.Checkpoints = base.Checkpoints[:3]
	for _, c := range []struct {
		name          string
		got, recorded map[string]statsCell
		want          string
	}{
		{"nested field", map[string]statsCell{"charm/uts/72w": changed}, map[string]statsCell{"charm/uts/72w": base},
			"charm/uts/72w: stats.Retransmits: got 41, recorded 40"},
		{"missing cell", map[string]statsCell{"a": base}, map[string]statsCell{"a": base, "glb/serve/horizon": base},
			"glb/serve/horizon: recorded, but not produced"},
		{"extra cell", map[string]statsCell{"a": base, "saws/uts/4w": base}, map[string]statsCell{"a": base},
			"saws/uts/4w: not recorded"},
		{"checkpoint", map[string]statsCell{"fib": diverged}, map[string]statsCell{"fib": base},
			"fib: checkpoints: first divergence in dispatch steps [2048, 3072), t=250ns to t=400ns"},
		{"run ends early", map[string]statsCell{"fib": short}, map[string]statsCell{"fib": base},
			"fib: checkpoints: first divergence in dispatch steps [3072, 4096), t=400ns to t=420ns"},
		{"run goes on", map[string]statsCell{"fib": base}, map[string]statsCell{"fib": short},
			"fib: checkpoints: first divergence in dispatch steps [3072, 4096), t=400ns to t=420ns"},
		{"equal", map[string]statsCell{"fib": base}, map[string]statsCell{"fib": base}, ""},
	} {
		msgs := Compare(c.got, c.recorded)
		if c.want == "" && len(msgs) != 0 || c.want != "" && !slices.Equal(msgs, []string{c.want}) {
			t.Errorf("%s: Compare = %q, want %q", c.name, msgs, c.want)
		}
	}
}

// TestStepsCheckpointEveryWindow: one checkpoint per Window steps plus the
// tail, each at its window's last virtual time, the hash covering every
// step so far and the exact time of each.
func TestStepsCheckpointEveryWindow(t *testing.T) {
	run := func(steps int, lastT int64) []Checkpoint {
		var s Steps
		for i := range steps {
			tm := int64(i)
			if i == steps-1 {
				tm = lastT
			}
			s.Step(tm, "run \"w0\"")
		}
		return s.Checkpoints()
	}
	cps := run(2*Window+5, 2*Window+4)
	if len(cps) != 3 || cps[0].T != Window-1 || cps[1].T != 2*Window-1 || cps[2].T != 2*Window+4 {
		t.Fatalf("2 windows + 5 steps: checkpoints %v", cps)
	}
	if again := run(2*Window+5, 2*Window+4); !slices.Equal(again, cps) {
		t.Errorf("the same steps hash to %v, then %v", cps, again)
	}
	if moved := run(2*Window+5, 2*Window+5); moved[2].Hash == cps[2].Hash || moved[1] != cps[1] {
		t.Errorf("a later time on the last step: %v, was %v", moved, cps)
	}
	if exact := run(2*Window, 2*Window-1); len(exact) != 2 || exact[1] != cps[1] {
		t.Errorf("exactly 2 windows: checkpoints %v, want the first two of %v", exact, cps)
	}
}
