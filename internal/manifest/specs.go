// The ten experiment specs: the registry entries cmd/repro's subcommand
// dispatch, `repro all`, and the manifest Runner all execute through. A spec
// is the one place an experiment's Params are read: its Call maps them onto
// the experiment package's entrypoint and binds the rows to their Layout.
// Validation and the Params → Options mapping are Spec.Run's, not repeated
// here.

package manifest

import (
	"contsteal/internal/experiments"
	"contsteal/internal/sim"
)

// nsFrom resolves a problem-size list: an explicit ns list wins, a single n
// becomes a one-element list, otherwise the experiment's default (nil)
// applies.
func nsFrom(p Params) []int {
	if p.NS != nil {
		return p.NS
	}
	if p.N != 0 {
		return []int{p.N}
	}
	return nil
}

func init() {
	Register(Spec{
		Name:   "fig6",
		Params: Params{Bench: "recpfor"},
		Golden: []string{"fig6_pfor_itoa.tsv"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Fig6Layout.Of(experiments.Fig6(o, p.Bench, nsFrom(p)))
		},
	})
	Register(Spec{
		Name:   "table2",
		Params: Params{Bench: "recpfor"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Table2Layout.Of(experiments.Table2(o, p.Bench, p.N))
		},
	})
	Register(Spec{
		Name: "fig7",
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Fig7Out{R: experiments.Fig7(o, p.N)}
		},
	})
	Register(Spec{
		Name:   "fig8",
		Params: Params{Tree: "T1L", SeqDepth: 3},
		Golden: []string{"uts_T1L'_itoa.tsv"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Fig8Layout.Of(experiments.Fig8(o, p.Tree, p.WorkersList, p.SeqDepth))
		},
	})
	Register(Spec{
		// fig9 defaults to the wisteria machine (the paper ran our runtime
		// alone on WISTERIA-O); an explicit machine param is honored.
		Name:   "fig9",
		Params: Params{Tree: "T1L", SeqDepth: 3},
		Golden: []string{"uts_T1WL'_wisteria.tsv"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Fig9Layout.Of(experiments.Fig9(o, p.Tree, p.WorkersList, p.SeqDepth))
		},
	})
	Register(Spec{
		Name: "table3",
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Table3Layout.Of(experiments.Table3(o, nsFrom(p)))
		},
	})
	Register(Spec{
		Name: "fig12",
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.Fig12Layout.Of(experiments.Fig12(o, nsFrom(p), p.WorkersList))
		},
	})
	Register(Spec{
		// resilience sweeps both machines unless one is named.
		Name:   "resilience",
		Params: Params{Tree: "T1L", SeqDepth: 3},
		Golden: []string{"resilience_T1L'_itoa.tsv"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.ResilienceLayout.Of(experiments.Resilience(o, p.Tree, p.SeqDepth))
		},
	})
	Register(Spec{
		// stealzoo sweeps the steal-policy axis itself (all six policies ×
		// perturbation scenarios on the dag workload), so the steal_policy
		// param does not apply; the shape/n params pick the task graph.
		Name:   "stealzoo",
		Params: Params{Shape: "wavefront"},
		Golden: []string{"stealzoo_itoa.tsv"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.StealZooLayout.Of(experiments.StealZoo(o, p.Shape, p.N))
		},
	})
	Register(Spec{
		Name: "serve",
		Golden: []string{"serve_itoa.tsv", "serve_wisteria.tsv",
			"serve_requests_itoa.tsv", "serve_requests_wisteria.tsv"},
		Call: func(p Params, o experiments.Options) experiments.Rendering {
			return experiments.ServeLayout.Of(experiments.Serve(o, experiments.ServeParams{
				Requests: p.Requests, Loads: p.Loads, Systems: p.Systems,
				Processes: p.Arrivals, Admits: p.Admits,
				Horizon: sim.Time(p.HorizonUs * float64(sim.Microsecond)),
			}))
		},
	})
}
