// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the simulator and the two TCP stacks
// sees in host time, and a per-layer ledger taken from outside the
// program. README.md in this directory says what every name means.
//
//	bench                      every workload, end-to-end then traced, as child processes
//	bench -workload bulk       one workload, end-to-end (--trace 0)
//	bench -workload bulk -trace 1 [-spans out.json]
//	bench -compare a.json b.json
//
// The last line of standard output of a single-workload run is the
// one-object JSON summary BENCHMARK.json's contract asks for.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var opts runOpts
	flag.StringVar(&opts.workload, "workload", "", "one of bulk, churn, lossy, rpc-rt; empty runs all four as child processes")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&opts.seconds, "seconds", defaultSeconds, "how long the timed reps of a run measure")
	flag.IntVar(&opts.reps, "reps", 0, "fix the number of timed reps instead of measuring for -seconds")
	flag.Float64Var(&opts.scale, "scale", 1, "fraction of each workload's fixed work (smoke runs only; recorded in the output)")
	flag.StringVar(&opts.spanPath, "spans", "", "write the traced run's spans to this file")
	trace := flag.String("trace", "", "0: end-to-end run, 1: traced per-layer run; empty means 0 for one workload, both for all")
	jsonPath := flag.String("json", "", "write the full result (every metric with quartiles, host description) to this file")
	compare := flag.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	flag.Parse()

	if err := run(opts, *trace, *jsonPath, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opts runOpts, trace, jsonPath string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if trace != "" && trace != "0" && trace != "1" {
		return fmt.Errorf("-trace wants 0 or 1, got %q", trace)
	}
	if opts.scale <= 0 || opts.scale > 1 {
		return fmt.Errorf("-scale wants a fraction in (0, 1], got %g", opts.scale)
	}
	if opts.workload == "" {
		return runSuite(opts, trace, jsonPath)
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == opts.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames, ", "))
	}

	var res *WorkloadResult
	var err error
	names := defNames(endToEnd)
	if trace == "1" {
		names = defNames(perLayer)
		res, err = runTraced(opts)
	} else {
		res, err = runEndToEnd(opts)
	}
	if err != nil {
		return err
	}
	line, err := contractLine(res, names)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, SuiteResult{Host: hostInfo(), Workloads: []WorkloadResult{*res}}); err != nil {
			return err
		}
	}
	printTable(res)
	fmt.Println(line)
	return nil
}

// runSuite runs every workload in its own child process, end-to-end
// and traced, and merges what they report.
func runSuite(opts runOpts, trace, jsonPath string) error {
	dir, err := os.MkdirTemp("", "bench-suite-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modes := []string{"0", "1"}
	if trace != "" {
		modes = []string{trace}
	}
	suite := SuiteResult{Host: hostInfo()}
	for _, wl := range workloadNames {
		for _, mode := range modes {
			args := []string{"-workload", wl, "-trace", mode, "-seed", fmt.Sprint(opts.seed),
				"-seconds", fmt.Sprint(opts.seconds), "-reps", fmt.Sprint(opts.reps), "-scale", fmt.Sprint(opts.scale)}
			if mode == "1" && opts.spanPath != "" {
				ext := filepath.Ext(opts.spanPath)
				args = append(args, "-spans", strings.TrimSuffix(opts.spanPath, ext)+"."+wl+ext)
			}
			part, err := runChild(args, filepath.Join(dir, wl+"-"+mode+".json"))
			if err != nil {
				return err
			}
			suite.Workloads = append(suite.Workloads, part.Workloads...)
		}
	}
	h := suite.Host
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s\n", h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.OS)
	failed := 0
	for _, w := range suite.Workloads {
		failed += w.Failed
	}
	fmt.Printf("operations failed: %d\n", failed)
	if jsonPath != "" {
		return writeJSON(jsonPath, suite)
	}
	return nil
}
