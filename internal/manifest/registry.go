package manifest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/topo"
	"contsteal/internal/workload"
)

// Exec carries the invocation-level knobs shared by every spec run that
// cannot change a result: host parallelism, the observability collector,
// and the observer of per-job progress and engine counters.
type Exec struct {
	Parallel int
	Obs      *experiments.ObsCollector
	Observer *experiments.Observer
}

// Spec is one registered experiment: its name (the cmd/repro subcommand and
// the manifest's experiment key), default Params, the committed golden
// fixture basenames the experiment reproduces at its smoke-scale params, and
// the Call that turns resolved params into the experiment's entrypoint call
// and wraps the rows in their Rendering.
type Spec struct {
	Name   string
	Params Params
	Golden []string
	Call   func(p Params, o experiments.Options) experiments.Rendering
}

// Run executes the spec: the caller's params overlay the spec's defaults (so
// callers only pass what they set), the result is validated and mapped onto
// experiments.Options, and Call runs the experiment. A job of the sweep that
// panics — a deque too small for the workload, a run that cannot complete by
// its horizon — is returned as its *experiments.JobError, which names the
// job's coordinates and the cause (and keeps the panicking stack in
// JobError.Stack) at every -parallel width; any other panic is a bug and
// passes through.
func (s *Spec) Run(p Params, x Exec) (r experiments.Rendering, err error) {
	p = s.Params.Merge(p)
	o, err := p.options(x)
	if err != nil {
		return nil, err
	}
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *experiments.JobError:
			r, err = nil, v
		default:
			panic(v)
		}
	}()
	return s.Call(p, o), nil
}

// options validates p and maps it, with the invocation knobs, onto
// experiments.Options. It rejects values no experiment can run, naming the
// field by its JSON tag: a name outside its set, a negative count or depth,
// a scale shift outside [0, 16], a non-positive element of a count or load
// list, an unparsable steal policy or perturbation. Unset (zero) fields
// pass — the experiments' defaults own them. Every spec run and every parsed
// manifest entry goes through it, so a bad CLI flag and a bad manifest knob
// fail with the same message before any simulation starts.
func (p Params) options(x Exec) (experiments.Options, error) {
	one := func(v string) []string {
		if v == "" {
			return nil
		}
		return []string{v}
	}
	for _, c := range []struct {
		field   string
		vals    []string
		allowed []string
	}{
		{"machine", one(p.Machine), []string{"itoa", "wisteria"}},
		{"bench", one(p.Bench), []string{"pfor", "recpfor"}},
		{"tree", one(p.Tree), []string{"T1L", "T1XXL", "T1WL", "T1L'", "T1XXL'", "T1WL'"}},
		{"shape", one(p.Shape), workload.DAGShapes()},
		{"systems", p.Systems, []string{"ours", "saws", "charm", "glb"}},
		{"arrivals", p.Arrivals, []string{"poisson", "mmpp"}},
		{"admits", p.Admits, []string{"always", "token"}},
	} {
		for _, v := range c.vals {
			if !slices.Contains(c.allowed, v) {
				return experiments.Options{}, fmt.Errorf("params: unknown %s %q (want one of %s)",
					c.field, v, strings.Join(c.allowed, ", "))
			}
		}
	}
	for _, c := range []struct {
		field string
		vals  []int
		min   int // a scalar's 0 means unset; a list element has no such reading
		want  string
	}{
		{"workers", []int{p.Workers}, 0, "positive"},
		{"n", []int{p.N}, 0, "positive"},
		{"workers_list", p.WorkersList, 1, "positive"},
		{"ns", p.NS, 1, "positive"},
		{"seqdepth", []int{p.SeqDepth}, 0, "non-negative"},
		{"workscale", []int{p.WorkScale}, 0, "non-negative"},
		{"dequecap", []int{p.DequeCap}, 0, "non-negative"},
		{"requests", []int{p.Requests}, 0, "non-negative"},
	} {
		for _, v := range c.vals {
			if v < c.min {
				return experiments.Options{}, fmt.Errorf("params: %s must be %s, got %d", c.field, c.want, v)
			}
		}
	}
	// Sizes are shifted left by scale: 16 already means 2^27-element kernels,
	// and a negative or word-sized shift is not a size at all.
	if p.Scale < 0 || p.Scale > 16 {
		return experiments.Options{}, fmt.Errorf("params: scale must be in [0, 16], got %d", p.Scale)
	}
	for _, l := range p.Loads {
		if !(l > 0) {
			return experiments.Options{}, fmt.Errorf("params: loads must be positive, got %g", l)
		}
	}
	if p.HorizonUs < 0 {
		return experiments.Options{}, fmt.Errorf("params: horizon_us must be non-negative, got %g", p.HorizonUs)
	}
	if _, err := core.ParseStealPolicy(p.Policy); err != nil {
		return experiments.Options{}, fmt.Errorf("params: %w", err)
	}
	pb, err := topo.ParsePerturb(p.Perturb)
	if err != nil {
		return experiments.Options{}, fmt.Errorf("params: %w", err)
	}
	return experiments.Options{
		Machine: p.Machine, Workers: p.Workers, Scale: p.Scale,
		Seed: p.Seed, WorkScale: p.WorkScale, DequeCap: p.DequeCap,
		Steal: p.Policy, Perturb: pb,
		Parallel: x.Parallel, Obs: x.Obs, Observer: x.Observer,
	}, nil
}

var (
	registry = map[string]*Spec{}
	order    []string
)

// Register adds a spec to the registry. Registration happens at package
// init; duplicate or unnamed specs are programming errors.
func Register(s Spec) {
	if s.Name == "" {
		panic("manifest: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("manifest: duplicate spec %q", s.Name))
	}
	registry[s.Name] = &s
	order = append(order, s.Name)
}

// Lookup returns the spec registered under name, or nil.
func Lookup(name string) *Spec { return registry[name] }

// Names returns every registered spec name in registration order (the
// canonical experiment order).
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// GoldenOwners maps each committed golden fixture basename to the spec that
// reproduces it, for validation reports.
func GoldenOwners() map[string]string {
	out := map[string]string{}
	names := Names()
	sort.Strings(names)
	for _, n := range names {
		for _, g := range registry[n].Golden {
			out[g] = n
		}
	}
	return out
}
