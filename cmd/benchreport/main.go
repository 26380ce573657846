// Command benchreport regenerates the experiment tables of
// EXPERIMENTS.md in one run: the fourteen deterministic experiments
// (E1–E14 from DESIGN.md) by default, the three wall-clock ones
// (e13soak, e15, e16) when named.
//
//	benchreport                            # run every deterministic experiment
//	benchreport -e e5                      # one experiment
//	benchreport -e e15                     # wall-clock backend soak (never in the default set)
//	benchreport -seed 7                    # different world seed
//	benchreport -e e10 -trace tracedir     # chaos soak + flight dumps
//	benchreport -perf BENCH_perf.json      # E11+E12+E15+E16 perf report instead of tables
//	benchreport -perf BENCH_perf.json -long # ... with E16's 100k-flow matrix
//	benchreport -check BENCH_perf.json     # perf-regression gate
//
// Experiments come from the experiments.Registry, so the tool needs no
// per-experiment wiring. All table numbers are deterministic functions
// of the seed; -perf additionally measures wall-clock throughput
// (events/sec, ns/event, allocs/event, RunSeeds speedup, E16 shard
// scaling), kept in separate timing sections excluded from the
// reproducibility check.
//
// -check reruns the perf matrix and compares it against a checked-in
// baseline: the deterministic rows (completions, bytes, events, the
// E16 scaling rows with their identical-across-backends flags) must
// match exactly, and allocs/event must not exceed the baseline by
// more than -tol (relative; default 0.25). Wall-clock fields (ns/event,
// events/sec, speedup) are never compared directly — they vary by
// machine — with one exception: the E16 shards=4 / shards=1 events-per-
// second RATIO is compared against the baseline's, scaled down to
// min(baseline, NumCPU) so a single-core runner is only held to the
// sharding-overhead floor, with -shardtol slack (default 0.35).
//
// Exit codes follow the shared policy in internal/experiments/cli:
// 0 success, 1 failed experiment / regression / write error, 2 usage
// error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments/cli"
	"repro/internal/workload"
)

func main() {
	common := cli.AddCommon(flag.CommandLine)
	var (
		perf     = flag.String("perf", "", `write the E11+E12+E16 perf report to this path ("-" for stdout) and exit`)
		check    = flag.String("check", "", "compare a fresh perf run against this baseline JSON and exit nonzero on regression")
		tol      = flag.Float64("tol", 0.25, "relative allocs/event tolerance for -check")
		shardTol = flag.Float64("shardtol", 0.35, "relative slack on the E16 shards=4 speedup ratio for -check")
	)
	flag.Parse()

	if *check != "" {
		if err := checkBaseline(*check, common.Seed, *tol, *shardTol); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(cli.ExitFail)
		}
		fmt.Printf("perf check against %s passed\n", *check)
		return
	}

	if *perf != "" {
		rep := workload.PerfLong(common.Seed, common.Long)
		if err := cli.WriteOutput(*perf, rep.JSON()); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(cli.ExitFail)
		}
		if *perf != "-" {
			fmt.Printf("wrote %s (%d rows, %d bakeoff cells, %d scaling cells, %.0f events/sec)\n",
				*perf, len(rep.Rows), len(rep.Bakeoff), len(rep.ScalingTiming), rep.Timing.EventsPerSec)
		}
		return
	}

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

// checkBaseline is the CI perf gate: rerun the matrix at seed and fail
// on any drift in the deterministic rows, an allocs/event regression
// beyond the relative tolerance, or an E16 shard-speedup collapse.
func checkBaseline(path string, seed int64, tol, shardTol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	base := &workload.PerfReport{}
	if err := json.Unmarshal(raw, base); err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	if base.Seed != seed {
		return fmt.Errorf("baseline %s was recorded at seed %d, checking at seed %d", path, base.Seed, seed)
	}
	rep := workload.Perf(seed)
	if got, want := rep.DeterministicJSON(), base.DeterministicJSON(); !bytes.Equal(got, want) {
		return fmt.Errorf("deterministic rows drifted from %s:\n--- baseline\n%s--- current\n%s", path, want, got)
	}
	if base.Timing == nil || base.Timing.AllocsPerEvent <= 0 {
		return fmt.Errorf("baseline %s has no allocs/event to compare against", path)
	}
	cur, limit := rep.Timing.AllocsPerEvent, base.Timing.AllocsPerEvent*(1+tol)
	if cur > limit {
		return fmt.Errorf("allocs/event regressed: %.3f > %.3f (baseline %.3f, tolerance %+.0f%%)",
			cur, limit, base.Timing.AllocsPerEvent, tol*100)
	}
	if err := checkShardSpeedup(base, rep, shardTol); err != nil {
		return err
	}
	fmt.Printf("allocs/event %.3f (baseline %.3f, limit %.3f); %d rows identical\n",
		cur, base.Timing.AllocsPerEvent, limit, len(rep.Rows))
	return nil
}

// checkShardSpeedup gates the E16 shards=4 / shards=1 events-per-second
// ratio against the committed baseline. The baseline ratio is first
// capped at min(shards, NumCPU): a baseline recorded on a many-core
// machine must not fail a single-core runner, where the honest
// expectation is "about as fast, minus sharding overhead". The current
// ratio may then fall shardTol below that expectation before the gate
// trips. Baselines without a scaling section (pre-E16) skip the check.
func checkShardSpeedup(base, rep *workload.PerfReport, shardTol float64) error {
	for _, bt := range base.ScalingTiming {
		if bt.Shards != 4 || bt.Speedup <= 0 {
			continue
		}
		want := bt.Speedup
		if c := float64(runtime.NumCPU()); want > c {
			want = c
		}
		if want > float64(bt.Shards) {
			want = float64(bt.Shards)
		}
		limit := want * (1 - shardTol)
		cur := workload.ShardSpeedup(rep.ScalingTiming, bt.Flows, bt.Shards)
		if cur <= 0 {
			return fmt.Errorf("scaling: no shards=%d cell at %d flows in the current run (baseline has one)", bt.Shards, bt.Flows)
		}
		if cur < limit {
			return fmt.Errorf("scaling: shards=%d speedup at %d flows regressed: %.2fx < %.2fx (baseline %.2fx capped to %d CPU(s), tolerance -%.0f%%)",
				bt.Shards, bt.Flows, cur, limit, bt.Speedup, runtime.NumCPU(), shardTol*100)
		}
		fmt.Printf("scaling: shards=%d speedup at %d flows %.2fx (limit %.2fx)\n", bt.Shards, bt.Flows, cur, limit)
	}
	return nil
}
