// Command benchmark is the repository benchmark: four cold-process simulator
// workloads, host and simulated end-to-end metrics, and a traced run that
// yields per-layer counts, spans and unit costs. See README.md in this
// directory for what each number means and BENCHMARK.json at the repository
// root for the names the driver reads.
//
//	go run ./benchmark [-workload NAME|all] [-seed 7] [-repeats 9] [-trace] [-out DIR]
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -update-expected [-seed N]
//
// Every number is either host time (what the simulator costs to run) or
// simulated time (what the modelled cluster would take). Simulated numbers
// are deterministic and must repeat exactly; gated host numbers are the best
// of n cold child processes, shown with their median and quartiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// options are the command's flags. The last four are the parent→child
// protocol and are not meant to be typed by hand.
type options struct {
	workload string
	seed     int64
	repeats  int
	seconds  int
	trace    bool
	out      string

	compare        bool
	updateExpected bool

	child  string // run | traced | setup | micro
	oracle string // comma-separated oracle values from the setup child
	small  bool   // scaled-down cells (tests only)
	procs  int    // GOMAXPROCS for this child instead of the workload's own
}

// minRepeats is the floor on timed repeats: the best of fewer cold runs does
// not hold its spread on this class of host. A traced -seconds run, whose
// repeats only feed per-layer medians and which also pays for the traced and
// micro children, stops at tracedMinRepeats.
const (
	minRepeats       = 5
	tracedMinRepeats = 3
)

func parseFlags(args []string) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 7, "seed for the runtimes' steal RNG and the dag/serve input generators")
	fs.IntVar(&o.repeats, "repeats", 9, fmt.Sprintf("cold child runs per workload (at least %d)", minRepeats))
	fs.IntVar(&o.seconds, "seconds", 0, fmt.Sprintf("give each workload this long in all, setup included, instead of -repeats (still at least %d runs)", minRepeats))
	fs.BoolVar(&o.trace, "trace", false, "add the traced child and the micro-drivers; report per-layer metrics and write span files")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for results.json and trace_<workload>.json")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files: -compare A.json B.json")
	fs.BoolVar(&o.updateExpected, "update-expected", false, "rewrite benchmark/expected.json for -seed from one cold run per workload")
	fs.StringVar(&o.child, "child", "", "internal: child process kind")
	fs.StringVar(&o.oracle, "oracle", "", "internal: oracle values for the child")
	fs.BoolVar(&o.small, "small", false, "internal: scaled-down cells for tests")
	fs.IntVar(&o.procs, "procs", 0, "internal: GOMAXPROCS for the child instead of the workload's own")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return o, nil, err
	}
	if o.repeats < minRepeats {
		return o, nil, fmt.Errorf("-repeats %d is below the floor of %d", o.repeats, minRepeats)
	}
	if o.seed == 0 {
		// experiments.Options treats seed 0 as "unset" and substitutes 42
		// inside ServeOnce; do the same for every workload so one seed
		// names one set of inputs.
		o.seed = 42
	}
	if o.seconds < 0 {
		return o, nil, fmt.Errorf("-seconds %d is negative", o.seconds)
	}
	return o, fs.Args(), nil
}

// joinTraceValue rewrites "-trace 0" / "--trace 1" into "-trace=0" so the
// driver's two-token form and the bare "-trace" switch both parse as one
// boolean flag.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	o, rest, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	switch {
	case o.child != "":
		err = runChild(o)
	case o.compare:
		if len(rest) != 2 {
			err = fmt.Errorf("-compare needs exactly two results files, got %d", len(rest))
		} else {
			err = compareFiles(os.Stdout, rest[0], rest[1])
		}
	case o.updateExpected:
		err = updateExpected(o)
	default:
		err = runParent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
