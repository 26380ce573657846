package main

import (
	"fmt"
	"math"
)

// Verdicts of comparing one workload × metric across two result files.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// worsening is how much b is worse than a as a share of a, signed so
// that positive is worse whichever direction the metric prefers.
func worsening(a, b float64, d metricDef) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == hi {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// spread is the interquartile range as a share of the median.
func spread(s Stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// verdict applies a metric's bound to two measurements of it. Where
// either side's own rep-to-rep spread exceeds the bound the difference
// cannot be told from noise, so the answer is unresolved — unless b's
// whole interquartile range lies on the better side of a's.
func verdict(a, b Stat, d metricDef) string {
	w := worsening(a.Median, b.Median, d)
	if math.Max(spread(a), spread(b)) > d.Bound {
		clear := b.Q3 < a.Q1
		if d.Better == hi {
			clear = b.Q1 > a.Q3
		}
		if clear {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case w > d.Bound:
		return verdictWorse
	case w < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

type compareRow struct {
	workload, metric, unit string
	a, b                   Stat
	verdict                string
}

// compareSuites returns one row per workload × end-to-end metric found
// in both files, and whether any workload's failure ratio rose.
func compareSuites(a, b *SuiteResult, defs []metricDef) (rows []compareRow, moreFailures []string) {
	find := func(s *SuiteResult, wl string) *WorkloadResult {
		for i := range s.Workloads {
			if w := &s.Workloads[i]; w.Workload == wl && !w.Traced {
				return w
			}
		}
		return nil
	}
	failRatio := func(w *WorkloadResult) float64 {
		if w.Attempted == 0 {
			return 1
		}
		return float64(w.Failed) / float64(w.Attempted)
	}
	for _, wl := range workloadNames {
		wa, wb := find(a, wl), find(b, wl)
		if wa == nil || wb == nil {
			continue
		}
		if failRatio(wb) > failRatio(wa) {
			moreFailures = append(moreFailures, fmt.Sprintf("%s: fail ratio %d/%d -> %d/%d", wl, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted))
		}
		for _, d := range defs {
			sa, oka := wa.Metrics[d.Name]
			sb, okb := wb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			rows = append(rows, compareRow{workload: wl, metric: d.Name, unit: d.Unit, a: sa, b: sb, verdict: verdict(sa, sb, d)})
		}
	}
	return rows, moreFailures
}

func compareFiles(pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	rows, moreFailures := compareSuites(a, b, endToEnd)
	if len(rows) == 0 {
		return fmt.Errorf("no workload × metric is present in both files")
	}
	fmt.Printf("a = %s\nb = %s\nratio is b/a (base: a's median)\n", pathA, pathB)
	fmt.Printf("%-8s %-22s %14s %14s %-6s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "unit", "b/a", "iqr a", "iqr b", "verdict")
	bad := 0
	for _, r := range rows {
		ratio := math.NaN()
		if r.a.Median != 0 {
			ratio = r.b.Median / r.a.Median
		}
		fmt.Printf("%-8s %-22s %14.6g %14.6g %-6s %8.4f %7.2f%% %7.2f%%  %s\n", r.workload, r.metric,
			r.a.Median, r.b.Median, r.unit, ratio, 100*spread(r.a), 100*spread(r.b), r.verdict)
		if r.verdict == verdictWorse {
			bad++
		}
	}
	for _, m := range moreFailures {
		fmt.Println("more failures:", m)
	}
	if bad > 0 || len(moreFailures) > 0 {
		return fmt.Errorf("%d metric(s) worse beyond their bound, %d workload(s) with a higher fail ratio", bad, len(moreFailures))
	}
	return nil
}
