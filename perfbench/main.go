// Command perfbench is the repository's regression benchmark. It runs
// one seed-generated workload against the flow's public layers and
// prints, as the last line of standard output, one JSON object with the
// run's correctness, op counts and metrics: the end-to-end metrics of
// an untraced run (--trace 0) or the per-layer metrics of a traced run
// (--trace 1).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload flow-scratch --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and how the
// benchmark relates to scripts/bench.sh and the Go Benchmark functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"flow-scratch": runFlowScratch,
	"paper-eval":   runPaperEval,
	"daemon-mix":   runDaemonMix,
	"mc-study":     runMCStudy,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	o.trace = traceFlag == 1

	run, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, "|"))
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
