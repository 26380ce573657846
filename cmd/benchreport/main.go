// Command benchreport regenerates the experiment tables of
// EXPERIMENTS.md in one run: the fifteen deterministic experiments
// (E1–E14 and E16 from DESIGN.md) by default, the two wall-clock soaks
// (e13soak, e15) when named.
//
//	benchreport                            # run every deterministic experiment
//	benchreport -e e5                      # one experiment
//	benchreport -e e15                     # wall-clock backend soak (never in the default set)
//	benchreport -seed 7                    # different world seed
//	benchreport -e e10 -trace tracedir     # chaos soak + flight dumps
//	benchreport -backend sharded:4         # same tables off the sharded engine
//
// Experiments come from the experiments.Registry, so the tool needs no
// per-experiment wiring. All table numbers of the deterministic set
// are functions of the seed. What the stacks and the engine cost in
// wall-clock terms is not this tool's question: the repository
// benchmark (`bash bench/run.sh`, BENCHMARK.json) measures it.
//
// Exit codes follow the shared policy in internal/experiments/cli:
// 0 success, 1 failed experiment, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments/cli"
)

func main() {
	common := cli.AddCommon(flag.CommandLine)
	flag.Parse()

	results, err := common.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(cli.ExitUsage)
	}
	for _, r := range results {
		fmt.Println(r.Text())
	}
	if failed := cli.Failed(results); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: experiments with failed scenarios: %s\n", strings.Join(failed, ","))
		os.Exit(cli.ExitFail)
	}
}
