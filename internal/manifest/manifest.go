// Package manifest turns the paper reproduction into a declarative,
// one-command pipeline. It provides three layers:
//
//   - a registry of experiment Specs (fig6 … serve), each with uniform
//     Params defaults and a Run entrypoint returning the experiment's
//     Rendering (see internal/experiments);
//   - a committed experiments.json manifest describing the full grid at
//     named scales ("smoke" reproduces the committed golden fixtures in
//     minutes, "paper" runs every figure/table at default scale);
//   - a Runner that executes manifest entries into a timestamped
//     paper_runs/<stamp>/{tsv,json,metrics} folder with a summary.tsv of
//     per-entry engine counters, and validates every TSV series
//     byte-for-byte against the committed goldens where they exist.
//
// cmd/repro dispatches its per-experiment subcommands, `repro all`,
// `repro run` and `repro validate` through this package.
package manifest

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Params is the uniform parameter bag of every experiment. A zero field
// means "not set": merging overlays set fields over spec defaults, so a
// manifest entry (or an explicitly-set CLI flag) only has to name the knobs
// it changes. Consequence: zero-valued settings (seqdepth=0, seed=0) are
// not expressible — the experiments' own defaults own those.
type Params struct {
	Machine     string    `json:"machine,omitempty"`      // itoa / wisteria ("" = experiment default)
	Bench       string    `json:"bench,omitempty"`        // pfor / recpfor
	Tree        string    `json:"tree,omitempty"`         // UTS preset: T1L / T1XXL / T1WL
	Workers     int       `json:"workers,omitempty"`      // simulated cores
	WorkersList []int     `json:"workers_list,omitempty"` // sweep worker counts (fig8/fig9/fig12)
	SeqDepth    int       `json:"seqdepth,omitempty"`     // UTS bottom-levels serialization
	N           int       `json:"n,omitempty"`            // problem size override
	NS          []int     `json:"ns,omitempty"`           // problem-size list (table3/fig12)
	Seed        int64     `json:"seed,omitempty"`
	Scale       int       `json:"scale,omitempty"`     // problem-size scale shift
	WorkScale   int       `json:"workscale,omitempty"` // UTS per-node work multiplier
	DequeCap    int       `json:"dequecap,omitempty"`  // per-worker deque capacity override
	Perturb     string    `json:"perturb,omitempty"`   // topo.ParsePerturb spec
	Requests    int       `json:"requests,omitempty"`  // serve: offered arrivals per cell
	Loads       []float64 `json:"loads,omitempty"`     // serve: offered-load multipliers
	Systems     []string  `json:"systems,omitempty"`   // serve: ours/saws/charm/glb
	Arrivals    []string  `json:"arrivals,omitempty"`  // serve: poisson/mmpp
	Admits      []string  `json:"admits,omitempty"`    // serve: always/token
	HorizonUs   float64   `json:"horizon_us,omitempty"`
	Policy      string    `json:"steal_policy,omitempty"` // core.ParseStealPolicy name ("" = paper's uniform steal-one)
	Shape       string    `json:"shape,omitempty"`        // dag workload shape (stealzoo): wavefront / stencil
}

// Merge returns p with every set (non-zero) field of o overriding. List
// fields override wholesale when non-nil.
func (p Params) Merge(o Params) Params {
	dst, src := reflect.ValueOf(&p).Elem(), reflect.ValueOf(o)
	for i := 0; i < src.NumField(); i++ {
		if f := src.Field(i); !f.IsZero() {
			dst.Field(i).Set(f)
		}
	}
	return p
}

// Entry is one experiment invocation of a manifest scale.
type Entry struct {
	// ID names the entry's outputs (tsv/<id>/, json/<id>.json, …) and must
	// be unique within its scale. Defaults to the experiment name.
	ID         string `json:"id,omitempty"`
	Experiment string `json:"experiment"`
	Params     Params `json:"params,omitempty"`
}

// Manifest is the committed experiment grid, keyed by scale name.
type Manifest struct {
	Scales map[string][]Entry `json:"scales"`
}

// Parse decodes and validates a manifest. Unknown fields anywhere in the
// document are rejected — a typoed knob must fail loudly, not silently run
// the default.
func Parse(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("manifest: trailing data after the top-level object")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks structural invariants: at least one scale, every entry
// naming a registered experiment with valid params, and unique IDs within
// each scale.
func (m *Manifest) validate() error {
	if len(m.Scales) == 0 {
		return fmt.Errorf("manifest: no scales defined")
	}
	for scale, entries := range m.Scales {
		if len(entries) == 0 {
			return fmt.Errorf("manifest: scale %q has no entries", scale)
		}
		seen := map[string]bool{}
		for i, e := range entries {
			if e.Experiment == "" {
				return fmt.Errorf("manifest: scale %q entry %d has no experiment", scale, i)
			}
			if Lookup(e.Experiment) == nil {
				return fmt.Errorf("manifest: scale %q entry %d: unknown experiment %q (registered: %s)",
					scale, i, e.Experiment, strings.Join(Names(), ", "))
			}
			if _, err := e.Params.options(Exec{}); err != nil {
				return fmt.Errorf("manifest: scale %q entry %d: %w", scale, i, err)
			}
			id := e.ID
			if id == "" {
				id = e.Experiment
			}
			if seen[id] {
				return fmt.Errorf("manifest: scale %q has duplicate entry id %q", scale, id)
			}
			seen[id] = true
		}
	}
	return nil
}

// ScaleNames returns the manifest's scales, sorted.
func (m *Manifest) ScaleNames() []string {
	names := make([]string, 0, len(m.Scales))
	for s := range m.Scales {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// Entries returns the resolved entries of a scale (IDs defaulted to the
// experiment name), in manifest order.
func (m *Manifest) Entries(scale string) ([]Entry, error) {
	entries, ok := m.Scales[scale]
	if !ok {
		return nil, fmt.Errorf("manifest: unknown scale %q (have %s)", scale, strings.Join(m.ScaleNames(), ", "))
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		if e.ID == "" {
			e.ID = e.Experiment
		}
		out[i] = e
	}
	return out, nil
}

// Select resolves a scale and filters it by the given selectors, each an
// entry ID or an experiment name (matching every entry of that experiment).
// An empty selector list keeps everything; a selector matching nothing is
// an error.
func (m *Manifest) Select(scale string, only []string) ([]Entry, error) {
	entries, err := m.Entries(scale)
	if err != nil {
		return nil, err
	}
	if len(only) == 0 {
		return entries, nil
	}
	want := map[string]bool{}
	for _, s := range only {
		want[s] = false
	}
	var out []Entry
	for _, e := range entries {
		if _, ok := want[e.ID]; ok {
			want[e.ID] = true
			out = append(out, e)
			continue
		}
		if _, ok := want[e.Experiment]; ok {
			want[e.Experiment] = true
			out = append(out, e)
		}
	}
	for s, hit := range want {
		if !hit {
			return nil, fmt.Errorf("manifest: -only selector %q matches no entry of scale %q", s, scale)
		}
	}
	return out, nil
}

//go:embed experiments.json
var embedded []byte

// Default parses the committed experiments.json built into the binary. It
// panics on error: the committed manifest is covered by tests, so a failure
// here is a build defect, not a runtime condition.
func Default() *Manifest {
	m, err := Parse(embedded)
	if err != nil {
		panic(fmt.Sprintf("manifest: committed experiments.json is invalid: %v", err))
	}
	return m
}
