package obs

import (
	"fmt"
	"io"

	"contsteal/internal/sim"
)

// Deterministic metrics: counters and fixed-bucket virtual-time histograms.
// A runtime's workers all record into its one Registry (no locks — the
// engine is sequential), so the serialized output is byte-stable across
// host parallelism settings, the same contract as the golden TSVs.

// Counter is a monotonically increasing count.
type Counter struct {
	Name string
	N    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.N += n }

// TimeBuckets is the default histogram bucket layout for virtual-time
// latencies: powers of two from 1 µs to ~1 s (values above the last bound
// land in the overflow bucket). Fixed bounds keep the output byte-stable.
func TimeBuckets() []sim.Time {
	b := make([]sim.Time, 21)
	v := sim.Microsecond
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// SmallCountBuckets is a bucket layout for small nonnegative counts
// (e.g. deque occupancy): powers of two from 1 to 1024.
func SmallCountBuckets() []sim.Time {
	b := make([]sim.Time, 11)
	v := sim.Time(1)
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Hist is a fixed-bucket histogram over virtual-time (or other int64)
// observations. Counts[i] counts observations <= Bounds[i] (and > the
// previous bound); Counts[len(Bounds)] is the overflow bucket.
type Hist struct {
	Name   string
	Bounds []sim.Time
	Counts []uint64
	N      uint64
	Sum    sim.Time
	Max    sim.Time
}

// NewHist creates a histogram with the given (ascending) bucket bounds.
func NewHist(name string, bounds []sim.Time) *Hist {
	return &Hist{Name: name, Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Hist) Observe(v sim.Time) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Registry holds named counters and histograms. Names are registered in a
// fixed order (first use), which is the serialization order.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Hist
	corder   []string
	horder   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	r.counters[name] = c
	r.corder = append(r.corder, name)
	return c
}

// Hist returns (registering on first use) the named histogram with the
// given bucket bounds. Re-registering with different bounds panics.
func (r *Registry) Hist(name string, bounds []sim.Time) *Hist {
	if h, ok := r.hists[name]; ok {
		if len(h.Bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	h := NewHist(name, bounds)
	r.hists[name] = h
	r.horder = append(r.horder, name)
	return h
}

// Lookup returns the named histogram without registering it.
func (r *Registry) Lookup(name string) (*Hist, bool) {
	h, ok := r.hists[name]
	return h, ok
}

// LookupCounter returns the named counter without registering it.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	c, ok := r.counters[name]
	return c, ok
}

// Counters returns the counters in registration order.
func (r *Registry) Counters() []*Counter {
	out := make([]*Counter, len(r.corder))
	for i, name := range r.corder {
		out[i] = r.counters[name]
	}
	return out
}

// Hists returns the histograms in registration order.
func (r *Registry) Hists() []*Hist {
	out := make([]*Hist, len(r.horder))
	for i, name := range r.horder {
		out[i] = r.hists[name]
	}
	return out
}

// WriteTSV serializes the registry as a flat TSV: one "counter" line per
// counter, one "hist" summary line plus one "bucket" line per bucket per
// histogram. All values are raw virtual-time integers (nanoseconds), so the
// output is exactly reproducible.
func (r *Registry) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "row\tname\tle_ns\tcount\tsum_ns\tmax_ns\n"); err != nil {
		return err
	}
	for _, c := range r.Counters() {
		if _, err := fmt.Fprintf(w, "counter\t%s\t-\t%d\t-\t-\n", c.Name, c.N); err != nil {
			return err
		}
	}
	for _, h := range r.Hists() {
		if _, err := fmt.Fprintf(w, "hist\t%s\t-\t%d\t%d\t%d\n", h.Name, h.N, int64(h.Sum), int64(h.Max)); err != nil {
			return err
		}
		for i, n := range h.Counts {
			le := "+inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", int64(h.Bounds[i]))
			}
			if _, err := fmt.Fprintf(w, "bucket\t%s\t%s\t%d\t-\t-\n", h.Name, le, n); err != nil {
				return err
			}
		}
	}
	return nil
}
