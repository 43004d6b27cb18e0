package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Cold isolation: the parent re-executes its own binary once per repeat and
// each child runs exactly one thing once and prints one JSON line. No memo,
// heap or GC pacing survives between repeats or between workloads — the
// committed BENCH_0007–0009 shard ladder measured workload/uts.go's
// process-global memos warming up, and this is what rules that out.

// span is one interval recorded by the benchmark around its own calls into a
// layer. Times are seconds since the child's span log was opened; Parent is
// the id of the enclosing span, -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// spanLog keeps spans in memory; they leave the process in the child's result
// line and the parent writes them out when the benchmark ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartS: time.Since(l.t0).Seconds()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id].EndS = time.Since(l.t0).Seconds() }

// in records f as one span without children.
func (l *spanLog) in(name string, parent int, f func()) {
	id := l.begin(name, parent)
	f()
	l.end(id)
}

// spanTotal sums the durations of every span with the given name.
func spanTotal(spans []span, name string) float64 {
	var s float64
	for _, sp := range spans {
		if sp.Name == name {
			s += sp.EndS - sp.StartS
		}
	}
	return s
}

// childResult is the one line a child prints.
type childResult struct {
	Kind       string `json:"kind"`
	Workload   string `json:"workload,omitempty"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// run / traced: the timed region spans the first core.New / ServeOnce /
	// bot.RunCharm call to the last cell's result being read.
	WallS     float64      `json:"wall_s,omitempty"`
	AllocMB   float64      `json:"alloc_mb,omitempty"`
	Mallocs   uint64       `json:"mallocs,omitempty"`
	GCCount   uint32       `json:"gc_count,omitempty"`
	PeakRSSMB float64      `json:"peak_rss_mb,omitempty"`
	Cells     []cellResult `json:"cells,omitempty"`
	Counts    counts       `json:"counts,omitempty"`
	Spans     []span       `json:"spans,omitempty"`

	// setup
	Oracle []int64 `json:"oracle,omitempty"`

	// micro: host ns per operation
	Micro map[string]float64 `json:"micro,omitempty"`

	// Filled in by the parent: the child's rusage CPU time, and its whole
	// life from exec to decoded result — process start, flag parsing and all.
	CPUS  float64 `json:"cpu_s,omitempty"`
	ProcS float64 `json:"proc_s,omitempty"`
}

func runChild(o options) error {
	res := childResult{Kind: o.child, Workload: o.workload, Seed: o.seed}
	switch o.child {
	case "micro":
		runtime.GOMAXPROCS(1)
		res.GOMAXPROCS = 1
		res.Micro = runMicro()
	case "setup", "run", "traced":
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		res.GOMAXPROCS = w.gomaxprocs
		if o.procs > 0 {
			res.GOMAXPROCS = o.procs
		}
		runtime.GOMAXPROCS(res.GOMAXPROCS)
		if o.child == "setup" {
			err = childSetup(w, o, &res)
		} else {
			err = childRun(w, o, &res)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child kind %q", o.child)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func childSetup(w workloadDef, o options, res *childResult) error {
	sp := newSpanLog()
	oracle, err := w.setup(o.seed, o.small, sp)
	if err != nil {
		return fmt.Errorf("%s setup: %w", w.name, err)
	}
	res.Oracle = oracle
	res.Spans = sp.spans
	return nil
}

func childRun(w workloadDef, o options, res *childResult) error {
	oracle, err := parseOracle(o.oracle)
	if err != nil {
		return err
	}
	e := &env{seed: o.seed, small: o.small, traced: o.child == "traced", oracle: oracle,
		spans: newSpanLog(), counts: counts{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	e.root = e.spans.begin("repeat", -1)
	w.run(e)
	e.spans.end(e.root)
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)

	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCount = m1.NumGC - m0.NumGC
	res.PeakRSSMB = peakRSSMB()
	res.Cells = e.cells
	res.Counts = e.counts
	res.Spans = e.spans.spans
	return nil
}

func parseOracle(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -oracle %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func formatOracle(vs []int64) string {
	fs := make([]string, len(vs))
	for i, v := range vs {
		fs[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(fs, ",")
}

// peakRSSMB reads the process's resident-set high-water mark (Linux); 0
// where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// childTimeout bounds one child: a cold run takes seconds, so a child still
// alive after this is hung, and the parent must not outlive the driver's own
// limit or leave a process behind.
const childTimeout = 150 * time.Second

// spawn runs one child of the given kind to completion and decodes its
// result line. The parent never runs two children at once.
func spawn(o options, kind, workload string, oracle []int64) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{"-child", kind, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10)}
	if oracle != nil {
		args = append(args, "-oracle", formatOracle(oracle))
	}
	if o.small {
		args = append(args, "-small")
	}
	if o.procs > 0 {
		args = append(args, "-procs", strconv.Itoa(o.procs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), childEnvVar+"=1")
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s child of %s: %w", kind, workload, err)
	}
	var res childResult
	line := bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return childResult{}, fmt.Errorf("%s child of %s: bad result line: %w", kind, workload, err)
	}
	res.ProcS = time.Since(start).Seconds()
	res.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return res, nil
}

// childEnvVar marks a re-executed process as a benchmark child. The command
// itself dispatches on -child; the marker lets the test binary, which the
// tests re-execute the same way, tell a child from a test run.
const childEnvVar = "CONTSTEAL_BENCH_CHILD"
