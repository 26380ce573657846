package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// common carries the experiment-selection flags: which experiments run,
// on what seed and backend, and where trace artifacts go.
type common struct {
	Seed     int64
	Exp      string
	TraceDir string
	Backend  string
}

// addCommon registers the selection flags on fs and returns the struct
// they populate after fs.Parse.
func addCommon(fs *flag.FlagSet) *common {
	c := &common{}
	fs.Int64Var(&c.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&c.Exp, "e", "", "comma-separated experiment ids; empty runs all")
	fs.StringVar(&c.TraceDir, "trace", "",
		"directory for causal-trace artifacts (flight-recorder dumps, pcapng captures); empty disables tracing")
	fs.StringVar(&c.Backend, "backend", "",
		`world backend override for the experiments that accept one ("sim", "sharded[:N]"); empty keeps the default sim — make determinism runs the full set with -backend sharded:N and diffs against the committed BENCH_metrics.json`)
	return c
}

// runExperiment runs one -e id (experiments.Run); a variable so that
// TestCommon can stand a wall-clock stub beside the real table.
var runExperiment = experiments.Run

// results resolves -e against the experiment table and executes the
// selection (or every deterministic experiment when empty), in the
// order given. Wall-clock experiments (e13soak, e15) only run when
// named explicitly — the run-everything default feeds the determinism gate,
// whose manifest must be a pure function of the seed. An unknown id is
// a usage error.
func (c *common) results() ([]*experiments.Result, error) {
	cfg := experiments.Config{Seed: c.Seed, TraceDir: c.TraceDir, Backend: c.Backend}
	if strings.TrimSpace(c.Exp) == "" {
		return experiments.RunAll(cfg), nil
	}
	var results []*experiments.Result
	for _, id := range strings.Split(c.Exp, ",") {
		r := runExperiment(strings.TrimSpace(id), cfg)
		if r == nil {
			known := append(experiments.IDs(), experiments.WallIDs()...)
			return nil, fmt.Errorf("unknown experiment %q (want one of %s)",
				id, strings.Join(known, ","))
		}
		results = append(results, r)
	}
	return results, nil
}

// failed lists the experiments whose tables contain error rows — a
// world that failed to build or a transfer that returned an error —
// so partial failures surface in the exit code instead of hiding in
// the middle of a table.
func failed(results []*experiments.Result) []string {
	var bad []string
	for _, r := range results {
		for _, row := range r.Rows {
			if rowFailed(row) {
				bad = append(bad, r.ID)
				break
			}
		}
	}
	return bad
}

// rowFailed recognizes the "error:..." cells experiments emit when a
// scenario dies.
func rowFailed(row []string) bool {
	for _, cell := range row {
		if strings.HasPrefix(cell, "error:") {
			return true
		}
	}
	return false
}

// writeOutput writes data to path, with "-" meaning stdout.
func writeOutput(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
