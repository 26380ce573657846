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
// Exit codes follow the shared policy in internal/command: 0 success,
// 1 failed experiment or write error, 2 usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/command"
	"repro/internal/experiments"
)

// runReport is the file's top-level shape. Every field marshals in
// declared order and every metrics snapshot is name-sorted, so the
// output is a deterministic function of the seed.
type runReport struct {
	Seed        int64                  `json:"seed"`
	Experiments []experiments.Manifest `json:"experiments"`
}

func main() { command.Main("runreport", run) }

// run parses args, runs the selected experiments and writes the report
// (and, when it goes to a file, one summary line to stdout).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("runreport", flag.ContinueOnError)
	sel := addCommon(fs)
	var (
		out    = fs.String("o", "BENCH_metrics.json", `output path ("-" for stdout)`)
		format = fs.String("format", "json", "json or text")
	)
	if err := command.Parse(fs, args); err != nil {
		return err
	}
	if *format != "json" && *format != "text" {
		return command.Usage(fmt.Errorf("unknown format %q (want json or text)", *format))
	}

	results, err := sel.results()
	if err != nil {
		return command.Usage(err)
	}

	var buf bytes.Buffer
	switch *format {
	case "json":
		rep := runReport{Seed: sel.Seed}
		for _, r := range results {
			rep.Experiments = append(rep.Experiments, r.Manifest())
		}
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	case "text":
		fmt.Fprintf(&buf, "run report (seed %d)\n\n", sel.Seed)
		for _, r := range results {
			buf.WriteString(r.Text())
			if len(r.Metrics.Samples) > 0 {
				fmt.Fprintf(&buf, "-- metrics (%d samples) --\n%s", len(r.Metrics.Samples), r.Metrics.Text())
			}
			buf.WriteByte('\n')
		}
	}

	if err := writeOutput(*out, buf.Bytes(), stdout); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(stdout, "wrote %s (%d experiments, %d bytes)\n", *out, len(results), buf.Len())
	}
	if bad := failed(results); len(bad) > 0 {
		return fmt.Errorf("experiments with failed scenarios: %s", strings.Join(bad, ","))
	}
	return nil
}
