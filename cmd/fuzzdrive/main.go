// Command fuzzdrive is the fault-schedule fuzz campaign driver: it
// derives one differential case per seed (random fault schedule plus
// workload shape, all seed-reproducible), runs each through both TCP
// stacks under the cross-stack oracle, and on failure auto-shrinks to
// a minimal reproducer, persists it as a replayable JSON corpus file,
// and emits flight-recorder + pcapng evidence.
//
//	go run ./cmd/fuzzdrive -seeds 200            # campaign over seeds 1..200
//	go run ./cmd/fuzzdrive -seeds 50 -start 300  # seeds 300..349
//	go run ./cmd/fuzzdrive -replay repro.json    # re-run one reproducer
//	go run ./cmd/fuzzdrive -seeds 100 -out corpus -trace art -budget 64
//	go run ./cmd/fuzzdrive -save corpus -seeds 8 # snapshot passing cases
//
// Exit codes: 0 every case passed, 1 any failure (after shrinking),
// 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/command"
	"repro/internal/fuzzer"
)

func main() { command.Main("fuzzdrive", run) }

// run parses args, then fuzzes the seed range or replays one
// reproducer, reporting each case on stdout. It returns an error if a
// case failed.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fuzzdrive", flag.ContinueOnError)
	var (
		seeds  = fs.Int("seeds", 50, "number of seeds to fuzz")
		start  = fs.Int64("start", 1, "first seed")
		budget = fs.Int("budget", 64, "max oracle re-runs while shrinking one failure")
		replay = fs.String("replay", "", "replay one reproducer file instead of fuzzing")
		out    = fs.String("out", "", "directory for shrunk reproducer files")
		trace  = fs.String("trace", "", "directory for flight-recorder dumps and pcapng captures")
		save   = fs.String("save", "", "save every case (pass or fail) as JSON under this directory")
		quiet  = fs.Bool("q", false, "only print failures and the summary")
	)
	if err := command.Parse(fs, args); err != nil {
		return err
	}

	if *replay != "" {
		return replayFile(stdout, *replay, *trace)
	}

	failures := 0
	for i := 0; i < *seeds; i++ {
		seed := *start + int64(i)
		c := fuzzer.NewCase(seed)
		v := fuzzer.Run(c)
		if *save != "" {
			if _, err := fuzzer.SaveCase(*save, c); err != nil {
				fmt.Fprintf(os.Stderr, "fuzzdrive: save %s: %v\n", c.Name, err)
			}
		}
		if v.OK() {
			if !*quiet {
				fmt.Fprintf(stdout, "ok   %s (%d steps)\n", c.Name, c.Steps())
			}
			continue
		}
		failures++
		fmt.Fprintf(stdout, "FAIL %s\n", v.Summary())
		sr := fuzzer.Shrink(c, fuzzer.Run, *budget)
		fmt.Fprintf(stdout, "     shrunk %d → %d steps in %d runs: %v\n",
			c.Steps(), sr.Case.Steps(), sr.Runs, sr.Case.Script)
		if *out != "" {
			if path, err := fuzzer.SaveCase(*out, sr.Case); err == nil {
				fmt.Fprintf(stdout, "     reproducer: %s\n", path)
			} else {
				fmt.Fprintf(os.Stderr, "fuzzdrive: save reproducer: %v\n", err)
			}
		}
		if *trace != "" {
			fuzzer.RunTraced(sr.Case, fuzzer.Artifacts{Dir: *trace, Label: sr.Case.Name})
			fmt.Fprintf(stdout, "     evidence: %s/%s-*.trace.json, *.pcapng\n", *trace, sr.Case.Name)
		}
	}
	fmt.Fprintf(stdout, "fuzzdrive: %d seeds, %d failures\n", *seeds, failures)
	if failures > 0 {
		return fmt.Errorf("%d of %d seeds failed", failures, *seeds)
	}
	return nil
}

// replayFile re-runs one persisted reproducer, with artifacts if a
// trace dir is given.
func replayFile(stdout io.Writer, path, traceDir string) error {
	c, err := fuzzer.LoadCase(path)
	if err != nil {
		return command.Usage(err)
	}
	var v *fuzzer.Verdict
	if traceDir != "" {
		v = fuzzer.RunTraced(c, fuzzer.Artifacts{Dir: traceDir, Label: c.Name})
	} else {
		v = fuzzer.Run(c)
	}
	fmt.Fprintln(stdout, v.Summary())
	if !v.OK() {
		return fmt.Errorf("reproducer %s failed", path)
	}
	return nil
}
