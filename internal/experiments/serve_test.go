package experiments

import (
	"reflect"
	"testing"

	"contsteal/internal/sim"
)

// The serve sweep's correctness contract is a conservation invariant: every
// offered request is accounted for exactly once, in every cell of the
// (system × process × admission) grid, whether the cell drains or is cut at
// a horizon. These tests run the real sweep at miniature scale.

func tinyServeParams() ServeParams {
	return ServeParams{
		Requests: 32,
		Loads:    []float64{0.5, 2},
	}
}

// checkServeRow asserts the per-cell invariants that hold for every row
// regardless of horizon: request conservation and ordered percentiles.
func checkServeRow(t *testing.T, r ServeRow) {
	t.Helper()
	name := r.System + "/" + r.Process + "/" + r.Admit
	if r.Admitted+r.Rejected != uint64(r.Requests) {
		t.Errorf("%s load=%g: admitted %d + rejected %d != offered %d",
			name, r.Load, r.Admitted, r.Rejected, r.Requests)
	}
	if r.Completed+r.InFlight != r.Admitted {
		t.Errorf("%s load=%g: completed %d + in-flight %d != admitted %d",
			name, r.Load, r.Completed, r.InFlight, r.Admitted)
	}
	if r.Injected > r.Admitted {
		t.Errorf("%s load=%g: injected %d exceeds admitted %d",
			name, r.Load, r.Injected, r.Admitted)
	}
	if r.Completed > r.Injected {
		t.Errorf("%s load=%g: completed %d exceeds injected %d",
			name, r.Load, r.Completed, r.Injected)
	}
	if r.P50 > r.P99 || r.P99 > r.P999 || r.P999 > r.MaxSojourn {
		t.Errorf("%s load=%g: percentiles out of order: p50=%v p99=%v p999=%v max=%v",
			name, r.Load, r.P50, r.P99, r.P999, r.MaxSojourn)
	}
	if r.Completed > 0 && (r.P50 <= 0 || r.MeanSojourn <= 0) {
		t.Errorf("%s load=%g: %d completions but empty sojourn stats",
			name, r.Load, r.Completed)
	}
}

// TestServeConservationEveryCell: the full drained grid — every system ×
// process × admission × load cell conserves requests, completes everything
// it admits, and the token bucket actually sheds load past the knee.
func TestServeConservationEveryCell(t *testing.T) {
	rows := Serve(tinyOpts(), tinyServeParams())
	p := tinyServeParams()
	p.defaults()
	want := len(p.Systems) * len(p.Processes) * len(p.Admits) * len(p.Loads)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	var rejected uint64
	for _, r := range rows {
		checkServeRow(t, r)
		// Drained cells (no horizon) finish every admitted request.
		if r.InFlight != 0 {
			t.Errorf("%s/%s/%s load=%g: %d requests in flight after a drained run",
				r.System, r.Process, r.Admit, r.Load, r.InFlight)
		}
		if r.Injected != r.Admitted {
			t.Errorf("%s/%s/%s load=%g: injected %d != admitted %d with no horizon",
				r.System, r.Process, r.Admit, r.Load, r.Injected, r.Admitted)
		}
		if r.Completed > 0 && r.GoodputRps <= 0 {
			t.Errorf("%s/%s/%s load=%g: completions but zero goodput",
				r.System, r.Process, r.Admit, r.Load)
		}
		if r.Admit == "token" && r.Load > 1 {
			rejected += r.Rejected
		}
		if r.Admit == "always" && r.Rejected != 0 {
			t.Errorf("%s/%s load=%g: always-admit rejected %d requests",
				r.System, r.Process, r.Load, r.Rejected)
		}
	}
	if rejected == 0 {
		t.Error("token bucket rejected nothing at twice capacity")
	}
}

// TestServeHorizonCellInFlight: a horizon inside the trace leaves work in
// flight, and the conservation invariant still balances exactly — the cut
// requests show up as InFlight, never vanish.
func TestServeHorizonCellInFlight(t *testing.T) {
	o := tinyOpts()
	p := tinyServeParams()
	p.Requests = 48
	// Cut mid-trace: at load 2 the offered window is ~48/(2·capacity)
	// seconds; a horizon at a quarter of that leaves arrivals unseen.
	horizonS := float64(p.Requests) / (2 * p.CapacityRps(o)) / 4
	p.Horizon = sim.Time(horizonS * float64(sim.Second))
	injected := map[string]uint64{}
	for _, system := range []string{"ours", "saws", "charm", "glb"} {
		r := ServeOnce(o, p, system, "poisson", "always", 2)
		checkServeRow(t, r)
		injected[system] = r.Injected
		if r.InFlight == 0 {
			t.Errorf("%s: horizon cut left nothing in flight", system)
		}
		if r.Injected >= r.Admitted {
			t.Errorf("%s: all %d admitted requests injected despite the horizon",
				system, r.Admitted)
		}
		if r.Makespan > p.Horizon {
			t.Errorf("%s: makespan %v ran past the %v horizon", system, r.Makespan, p.Horizon)
		}
	}
	// ours counts the arrival timers that fired; the baselines count the
	// arrivals before the horizon. Both see the same admitted trace.
	for system, n := range injected {
		if n != injected["ours"] {
			t.Errorf("injected per system %v: %s differs from ours", injected, system)
		}
	}
}

// TestServeReqBandsConservation: every "ours" cell carries the p50/p99/p999
// attribution bands, each band's components sum exactly to its sojourn
// total, and the band populations nest (p999 ⊆ p99 ⊆ p50 tails).
func TestServeReqBandsConservation(t *testing.T) {
	r := ServeOnce(tinyOpts(), tinyServeParams(), "ours", "poisson", "always", 0.5)
	if len(r.Bands) != 3 {
		t.Fatalf("got %d attribution bands, want 3", len(r.Bands))
	}
	for i, b := range r.Bands {
		if sum := b.Sum(); sum != b.Sojourn {
			t.Errorf("band %s: components sum to %v, sojourn total %v", b.Band, sum, b.Sojourn)
		}
		if b.Requests == 0 {
			t.Errorf("band %s is empty", b.Band)
		}
		if b.Compute == 0 {
			t.Errorf("band %s attributes no compute", b.Band)
		}
		if i > 0 && b.Requests > r.Bands[i-1].Requests {
			t.Errorf("band %s has %d requests, more than wider band %s's %d",
				b.Band, b.Requests, r.Bands[i-1].Band, r.Bands[i-1].Requests)
		}
	}
	if want := []string{"p50", "p99", "p999"}; !reflect.DeepEqual(
		[]string{r.Bands[0].Band, r.Bands[1].Band, r.Bands[2].Band}, want) {
		t.Errorf("band order %v, want %v", r.Bands, want)
	}
	// Bot systems never carry bands.
	if b := ServeOnce(tinyOpts(), tinyServeParams(), "saws", "poisson", "always", 0.5); b.Bands != nil {
		t.Errorf("saws row carries %d attribution bands", len(b.Bands))
	}
}

// TestServeRequestSeries: the serve_requests series renders one line per
// ours-cell × band and the TSV columns preserve the conservation identity.
func TestServeRequestSeries(t *testing.T) {
	p := tinyServeParams()
	p.Systems = []string{"ours", "glb"}
	rows := Serve(tinyOpts(), p)
	s, ok := serveRequestSeries(rows)
	if !ok {
		t.Fatal("no request series from a traced ours sweep")
	}
	p.defaults()
	oursCells := len(p.Processes) * len(p.Admits) * len(p.Loads)
	if want := oursCells * 3; len(s.Cells) != want {
		t.Fatalf("request series has %d lines, want %d", len(s.Cells), want)
	}
	if s.Name != "serve_requests_itoa" {
		t.Errorf("series name %q", s.Name)
	}
	all := ServeLayout.Of(rows).Series()
	if got := all[len(all)-1].Name; got != s.Name {
		t.Errorf("Series() does not end with the request series (got %q)", got)
	}
	for _, c := range s.Cells {
		if c[1] != "ours" {
			t.Errorf("request series line for system %q", c[1])
		}
	}
	// A sweep with no "ours" cell renders no request series.
	p.Systems = []string{"glb"}
	if _, ok := serveRequestSeries(Serve(tinyOpts(), p)); ok {
		t.Error("a sweep without ours cells still renders a request series")
	}
}

// TestServeRowsParallelIdentical: the sweep's rows are identical under host
// parallelism — the open-system path inherits the engine's determinism
// guarantee.
func TestServeRowsParallelIdentical(t *testing.T) {
	p := tinyServeParams()
	p.Requests = 24
	base := Serve(tinyOpts(), p)
	o := tinyOpts()
	o.Parallel = 8
	rows := Serve(o, p)
	if !reflect.DeepEqual(base, rows) {
		for i := range base {
			if !reflect.DeepEqual(base[i], rows[i]) {
				t.Fatalf("parallel=8: row %d differs:\nbase %+v\n got %+v", i, base[i], rows[i])
			}
		}
		t.Fatal("parallel=8: rows differ")
	}
}
