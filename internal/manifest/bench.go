// BENCH_<stamp>.json: the machine-checkable perf artifact every `repro run`
// emits — host-side engine throughput (events/sec), protocol handoffs, and
// cross-shard traffic per experiment, via the experiments.EngineStats hook,
// plus each experiment's key summary metrics. (The cold, repeated
// host-throughput trajectory across PRs lives in benchmark/results/.)

package manifest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"contsteal/internal/core"
	"contsteal/internal/experiments"
)

// BenchSchema identifies the one artifact format: every artifact carries
// the serve tail-latency headline summary keys and the host's GOMAXPROCS at
// run time, so throughput numbers name the core count they were measured
// under.
const BenchSchema = "contsteal-bench/v3"

// Bench is one run's perf artifact. HostCPUs is runtime.NumCPU and
// GoMaxProcs is runtime.GOMAXPROCS at run time: events/sec figures are only
// comparable between artifacts measured on the same core budget, and
// `repro validate` warns when they differ.
type Bench struct {
	Schema     string       `json:"schema"`
	Stamp      string       `json:"stamp"`
	Scale      string       `json:"scale"`
	Go         string       `json:"go"`
	HostCPUs   int          `json:"host_cpus"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Entries    []BenchEntry `json:"entries"`
}

// BenchEntry aggregates the engine counters of every fork-join run of one
// manifest entry. Wall time is summed across the entry's jobs, so
// EventsPerSec is per-host-CPU throughput regardless of pool width.
type BenchEntry struct {
	ID           string             `json:"id"`
	Experiment   string             `json:"experiment"`
	Shards       int                `json:"shards"`
	Jobs         int                `json:"jobs"`
	Events       uint64             `json:"events"`
	Handoffs     uint64             `json:"handoffs"`
	Callbacks    uint64             `json:"callbacks"`
	CrossShard   uint64             `json:"cross_shard"`
	WallSeconds  float64            `json:"wall_s"`
	EventsPerSec float64            `json:"events_per_sec"`
	Summary      map[string]float64 `json:"summary,omitempty"`
}

// ParseBench strictly decodes and validates a BENCH artifact. Unknown
// fields are rejected; structural invariants (schema tag, non-empty stamp
// and entries, per-entry consistency) must hold.
func ParseBench(data []byte) (*Bench, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Bench
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bench: trailing data after the top-level object")
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("bench: schema %q, want %q", b.Schema, BenchSchema)
	}
	if b.GoMaxProcs < 1 {
		return nil, fmt.Errorf("bench: gomaxprocs %d, want >= 1", b.GoMaxProcs)
	}
	if b.Stamp == "" {
		return nil, fmt.Errorf("bench: empty stamp")
	}
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("bench: no entries")
	}
	for i, e := range b.Entries {
		if e.ID == "" || e.Experiment == "" {
			return nil, fmt.Errorf("bench: entry %d missing id or experiment", i)
		}
		if e.Shards < 1 {
			return nil, fmt.Errorf("bench: entry %s: shards %d < 1", e.ID, e.Shards)
		}
		if e.Jobs > 0 && (e.Events == 0 || e.WallSeconds <= 0 || e.EventsPerSec <= 0) {
			return nil, fmt.Errorf("bench: entry %s: %d jobs but events=%d wall_s=%g events_per_sec=%g",
				e.ID, e.Jobs, e.Events, e.WallSeconds, e.EventsPerSec)
		}
	}
	return &b, nil
}

// HostMismatch reports why throughput comparisons between two artifacts
// would be apples-to-oranges: differing host core counts or GOMAXPROCS.
// An empty string means the hosts are comparable.
func (b *Bench) HostMismatch(other *Bench) string {
	var why []string
	if b.HostCPUs != other.HostCPUs {
		why = append(why, fmt.Sprintf("host_cpus %d vs %d", b.HostCPUs, other.HostCPUs))
	}
	if b.GoMaxProcs != other.GoMaxProcs {
		why = append(why, fmt.Sprintf("gomaxprocs %d vs %d", b.GoMaxProcs, other.GoMaxProcs))
	}
	return strings.Join(why, ", ")
}

// benchAgg accumulates EngineStats callbacks for one manifest entry.
type benchAgg struct {
	jobs                               int
	events, handoffs, callbacks, cross uint64
	wall                               time.Duration
}

// add is wired to experiments.EngineStats; calls arrive serialized.
func (a *benchAgg) add(_ experiments.Coord, st core.RunStats, wall time.Duration) {
	a.jobs++
	a.events += st.Engine.Events
	a.handoffs += st.Engine.Handoffs
	a.callbacks += st.Engine.Callbacks
	a.cross += st.CrossShard
	a.wall += wall
}

// entry snapshots the aggregate as a BenchEntry.
func (a *benchAgg) entry(id, experiment string, shards int) BenchEntry {
	e := BenchEntry{
		ID: id, Experiment: experiment, Shards: shards,
		Jobs: a.jobs, Events: a.events, Handoffs: a.handoffs,
		Callbacks: a.callbacks, CrossShard: a.cross,
		WallSeconds: a.wall.Seconds(),
	}
	if a.wall > 0 {
		e.EventsPerSec = float64(a.events) / a.wall.Seconds()
	}
	return e
}
