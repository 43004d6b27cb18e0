package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"contsteal/internal/core"
	"contsteal/internal/experiments"
	"contsteal/internal/sim"
)

// runAnalyze dispatches `repro analyze`. The subcommand owns its FlagSet (the
// shared experiment FlagSet already uses -requests as the serve arrival
// count): plain analyze is the per-rank delay attribution; -requests switches
// to the per-request sojourn attribution of an open-system serve trace. Both
// modes exit non-zero when the trace-derived totals disagree with the
// counter-derived statistics embedded in the file.
func runAnalyze(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	byRequest := fs.Bool("requests", false, "per-request sojourn attribution (serve traces only)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: repro analyze [-requests] <trace.json>")
	}
	mode, report := "analyze", analyze
	if *byRequest {
		mode, report = "analyze -requests", analyzeRequests
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %w", mode, err)
	}
	return report(stdout, fs.Arg(0), tr)
}

// loadTrace reads a raw-JSON trace file produced by -trace.
func loadTrace(path string) (*core.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := core.ReadTraceJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// analyze implements `repro analyze <trace.json>`: a DelaySpotter-style
// delay attribution computed purely from the event log, cross-checked
// against the counter-derived statistics embedded in the trace file. Each
// worker's virtual time decomposes into
//
//	busy         — executing user compute,
//	steal-search — failed steal attempts (looking for work, finding none),
//	steal-xfer   — successful steal protocol + payload transfer,
//	oj-wait      — outstanding joins: resumable continuations waiting for a
//	               worker (attributed to the rank that eventually ran them),
//	other        — the residual: scheduler bookkeeping, entry management,
//	               idle backoff.
//
// fabric-wait is reported alongside: the rank's time inside raw remote RDMA
// ops. It is a different cut of the same timeline (the protocol phases above
// are built out of fabric ops), so it overlaps the other buckets rather than
// adding to them. perturb is the injected-fault share of fabric-wait (the
// perturb.extra spans): zero unless the run carried an active topo.Perturb.
func analyze(stdout io.Writer, path string, tr *core.Trace) error {
	if tr.Workers == 0 {
		return fmt.Errorf("analyze: %s: empty trace (workers=0)", path)
	}

	att := tr.Attribution()
	tot, rows, checkErr := tr.CheckRanks(att)
	pct := func(d sim.Time) string {
		if tr.ExecTime == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(tr.ExecTime))
	}
	fmt.Fprintf(stdout, "\n== Delay attribution: %s (%d workers, exec %v) ==\n",
		path, tr.Workers, tr.ExecTime)
	w := experiments.NewTW(stdout)
	fmt.Fprintln(w, "rank\tbusy\tsteal-search\tsteal-xfer\toj-wait\tother\tfabric-wait\tperturb\tsteals\tfails\tresumes")
	for _, r := range att {
		other := tr.ExecTime - r.Busy - r.StealSearch - r.StealXfer
		fmt.Fprintf(w, "%d\t%v (%s)\t%v (%s)\t%v (%s)\t%v\t%v (%s)\t%v\t%v\t%d\t%d\t%d\n",
			r.Rank,
			r.Busy, pct(r.Busy),
			r.StealSearch, pct(r.StealSearch),
			r.StealXfer, pct(r.StealXfer),
			r.OJWait,
			other, pct(other),
			r.FabricWait,
			r.PerturbWait,
			r.Steals, r.Fails, r.Resumes)
	}
	fmt.Fprintf(w, "Σ\t%v\t%v\t%v\t%v\t\t%v\t%v\t%d\t%d\t%d\n",
		tot.Busy, tot.StealSearch, tot.StealXfer, tot.OJWait, tot.FabricWait, tot.PerturbWait,
		tot.Steals, tot.Fails, tot.Resumes)
	w.Flush()

	// The cross-check: every trace-derived total must equal its
	// counter-derived Check value exactly. The rows printed are the rows
	// CheckRanks compared.
	cw := experiments.NewTW(stdout)
	fmt.Fprintln(stdout, "\nCross-check against run statistics (Table II counters):")
	fmt.Fprintln(cw, "quantity\tfrom trace\tfrom counters")
	for _, r := range rows {
		fmt.Fprintf(cw, "%s\t%v\t%v\n", r.Name, r.Trace, r.Counters)
	}
	cw.Flush()
	if checkErr != nil {
		return fmt.Errorf("analyze: %v", checkErr)
	}
	fmt.Fprintln(stdout, "all totals agree exactly")
	return nil
}

// analyzeRequests implements `repro analyze -requests`: the per-request
// sojourn attribution of an open-system serve trace. Each completed
// request's sojourn decomposes into admission-wait / queue / compute /
// steal-transfer / fabric-wait / sched / join-wait components that sum to
// End−At exactly; the table folds them over the p50/p99/p999 tail bands
// (requests at or above that sojourn percentile — the same aggregation the
// serve sweep's serve_requests TSV pins). The attribution is cross-checked
// against the counter-derived ServeStats embedded in the trace; any
// disagreement, down to a single tick or a single corrupted counter, is a
// non-zero exit.
func analyzeRequests(stdout io.Writer, path string, tr *core.Trace) error {
	if tr.Serve == nil {
		return fmt.Errorf("analyze -requests: %s: no serve block — not an open-system trace (run `repro serve -trace ...`)", path)
	}
	ck := tr.Serve
	atts := tr.RequestAttribution()
	if err := tr.CheckRequests(atts); err != nil {
		return fmt.Errorf("analyze -requests: %s: %v", path, err)
	}
	fmt.Fprintf(stdout, "\n== Request attribution: %s (%d workers; %d completed, %d in flight) ==\n",
		path, tr.Workers, len(atts), ck.InFlight)

	bands := experiments.ServeReqBands(atts)
	w := experiments.NewTW(stdout)
	fmt.Fprintln(w, "band\treqs\tsojourn\tadmit-wait\tqueue\tcompute\tsteal-xfer\tfabric-wait\tsched\tjoin-wait\tdominant")
	for _, b := range bands {
		pct := func(d sim.Time) string {
			if b.Sojourn == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(b.Sojourn))
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%v (%s)\t%v (%s)\t%v (%s)\t%v (%s)\t%v (%s)\t%v (%s)\t%v (%s)\t%s\n",
			b.Band, b.Requests, b.Sojourn,
			b.AdmitWait, pct(b.AdmitWait),
			b.Queue, pct(b.Queue),
			b.Compute, pct(b.Compute),
			b.StealXfer, pct(b.StealXfer),
			b.FabricWait, pct(b.FabricWait),
			b.Sched, pct(b.Sched),
			b.JoinWait, pct(b.JoinWait),
			b.DominantDelay())
	}
	w.Flush()

	// Cross-check: percentile sojourns recomputed from the trace-derived
	// attribution must reproduce the counter-derived completion log. (The
	// per-request windows already matched in CheckRequests; this prints the
	// headline numbers from both sides.)
	fromTrace := make([]sim.Time, len(atts))
	for i, at := range atts {
		fromTrace[i] = at.Sojourn()
	}
	fromStats := make([]sim.Time, len(ck.Done))
	for i, d := range ck.Done {
		fromStats[i] = d.Sojourn()
	}
	slices.Sort(fromTrace) // ascending, for the percentile rule
	slices.Sort(fromStats)
	cw := experiments.NewTW(stdout)
	fmt.Fprintln(stdout, "\nCross-check against serve statistics:")
	fmt.Fprintln(cw, "quantity\tfrom trace\tfrom counters")
	fmt.Fprintf(cw, "completed\t%d\t%d\n", len(atts), ck.Completed)
	fmt.Fprintf(cw, "admitted = completed + in-flight\t%d\t%d\n", uint64(len(atts))+ck.InFlight, ck.Admitted)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50 sojourn", 0.50}, {"p99 sojourn", 0.99}, {"p999 sojourn", 0.999}} {
		t, s := core.Percentile(fromTrace, q.q), core.Percentile(fromStats, q.q)
		fmt.Fprintf(cw, "%s\t%v\t%v\n", q.name, t, s)
		if t != s {
			cw.Flush()
			return fmt.Errorf("analyze -requests: %s: %s from trace (%v) != from counters (%v)", path, q.name, t, s)
		}
	}
	cw.Flush()
	fmt.Fprintln(stdout, "every request's components sum to its sojourn exactly; trace and counters agree")
	return nil
}
