package experiments

import (
	"fmt"

	"repro/internal/fuzzer"
	"repro/internal/metrics"
)

func init() {
	Register("e14", E14CorpusReplay)
}

// e14FreshCases is how many freshly generated schedules ride along
// with the committed corpus: enough to keep the generator honest under
// the determinism gate, few enough to stay cheap.
const e14FreshCases = 2

// E14CorpusReplay replays the fuzzer's committed reproducer corpus —
// plus a couple of freshly generated schedules derived from the run
// seed — through the cross-stack differential oracle: both TCPs under
// the identical fault schedule must complete with identical delivered
// streams, zero watchdog/contract violations, and pooled/allocating
// codec agreement on every wire crossing. Because the experiment runs
// inside the byte-determinism gate (runreport → BENCH_metrics.json),
// every corpus case is re-litigated on every CI run, and any schedule
// the fuzzer ever found interesting stays a permanent regression test.
//
// With cfg.TraceDir set, every case runs with the flight recorder
// attached and leaves causal-chain dumps (plus pcapng captures) under
// the directory; the Result is byte-identical either way.
func E14CorpusReplay(cfg Config) *Result {
	res := &Result{
		ID:    "E14",
		Title: "fault-schedule fuzz corpus replay: differential oracle over both stacks",
		Header: []string{"case", "stack", "fault-steps", "completed", "violations",
			"codec-frames", "codec-issues", "virtual-time"},
	}
	cases := fuzzer.Corpus()
	corpusN := len(cases)
	for i := 0; i < e14FreshCases; i++ {
		c := fuzzer.NewCase(cfg.Seed*1009 + int64(i) + 1)
		c.Name = fmt.Sprintf("fresh-%d", i+1)
		cases = append(cases, c)
	}

	reg := metrics.New()
	failures := 0
	for _, c := range cases {
		var v *fuzzer.Verdict
		if cfg.TraceDir != "" {
			v = fuzzer.RunTraced(c, fuzzer.Artifacts{Dir: cfg.TraceDir, Label: "e14-" + c.Name})
		} else {
			v = fuzzer.Run(c)
		}
		if !v.OK() {
			failures++
		}
		sc := reg.Scope(c.Name)
		for _, s := range v.Stacks {
			res.Rows = append(res.Rows, []string{
				c.Name, s.Stack,
				fmt.Sprintf("%d", c.Steps()),
				fmt.Sprintf("%v", s.Completed),
				fmt.Sprintf("%d", len(s.Violations)),
				fmt.Sprintf("%d", s.FramesSeen),
				fmt.Sprintf("%d", len(s.CodecIssue)),
				s.Elapsed,
			})
			ssc := sc.Sub(s.Stack)
			ssc.Gauge("frames_checked").Set(int64(s.FramesSeen))
			ssc.Gauge("violations").Set(int64(len(s.Violations)))
			ssc.Gauge("codec_issues").Set(int64(len(s.CodecIssue)))
		}
	}
	res.Metrics = reg.Snapshot()
	res.Notes = append(res.Notes,
		fmt.Sprintf("corpus: %d committed reproducers + %d fresh schedules, %d failing",
			corpusN, e14FreshCases, failures),
		"every case runs the identical schedule through both stacks: completion, delivered-stream equality, sublayer contracts and pooled/allocating codec agreement are all asserted per run",
		"the corpus replays inside the determinism gate, so fuzzer findings are permanent regression tests")
	return res
}
