// Command runreport runs every deterministic experiment (E1–E14 and
// E16) and writes one machine-readable run report, the manifest the
// determinism gate compares: per-experiment tables plus, for every
// scenario, the count and SHA-256 of its metric samples — simulator
// and link counters, datalink ARQ/MAC, routing and forwarding, and
// both transport stacks down to per-connection sublayer scopes.
// -format text prints the samples themselves, one per line: the dump
// to diff when a digest moves.
//
//	go run ./cmd/runreport                 # writes BENCH_metrics.json
//	go run ./cmd/runreport -o - -format text
//	go run ./cmd/runreport -e e3 -o - -format text  # one experiment's samples
//	go run ./cmd/runreport -seed 7
//	go run ./cmd/runreport -trace tracedir # also dump causal traces
//
// The report carries virtual time only — no wall clock, no hostnames —
// so the same seed produces a byte-identical file on every run, with
// or without -trace (trace artifacts are separate files and never
// alter the report). The run-everything default iterates only the
// deterministic experiment registry, so the wall-clock soaks (e13soak
// and e15, registered via RegisterWall) can never leak real-time
// numbers into the gated file.
//
// Exit codes follow the shared policy in internal/experiments/cli:
// 0 success, 1 failed experiment or write error, 2 usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/experiments/cli"
)

// runReport is the file's top-level shape. Every field marshals in
// declared order and every metrics snapshot is name-sorted, so the
// output is a deterministic function of the seed.
type runReport struct {
	Seed        int64                  `json:"seed"`
	Experiments []experiments.Manifest `json:"experiments"`
}

func main() {
	common := cli.AddCommon(flag.CommandLine)
	var (
		out    = flag.String("o", "BENCH_metrics.json", `output path ("-" for stdout)`)
		format = flag.String("format", "json", "json or text")
	)
	flag.Parse()
	if *format != "json" && *format != "text" {
		fmt.Fprintf(os.Stderr, "runreport: unknown format %q (want json or text)\n", *format)
		os.Exit(cli.ExitUsage)
	}

	results, err := common.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "runreport: %v\n", err)
		os.Exit(cli.ExitUsage)
	}

	var buf bytes.Buffer
	switch *format {
	case "json":
		rep := runReport{Seed: common.Seed}
		for _, r := range results {
			rep.Experiments = append(rep.Experiments, r.Manifest())
		}
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "runreport: %v\n", err)
			os.Exit(cli.ExitFail)
		}
	case "text":
		fmt.Fprintf(&buf, "run report (seed %d)\n\n", common.Seed)
		for _, r := range results {
			buf.WriteString(r.Text())
			if len(r.Metrics.Samples) > 0 {
				fmt.Fprintf(&buf, "-- metrics (%d samples) --\n%s", len(r.Metrics.Samples), r.Metrics.Text())
			}
			buf.WriteByte('\n')
		}
	}

	if err := cli.WriteOutput(*out, buf.Bytes()); err != nil {
		fmt.Fprintf(os.Stderr, "runreport: %v\n", err)
		os.Exit(cli.ExitFail)
	}
	if *out != "-" {
		fmt.Printf("wrote %s (%d experiments, %d bytes)\n", *out, len(results), buf.Len())
	}
	if failed := cli.Failed(results); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "runreport: experiments with failed scenarios: %s\n", strings.Join(failed, ","))
		os.Exit(cli.ExitFail)
	}
}
