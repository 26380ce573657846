package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Stat is one metric as reported: the median over its samples with
// the quartiles and the sample count beside it. Layer metrics taken
// once have N == 1 and Q1 == Q3 == Median.
type Stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// WorkloadResult is everything one workload process measured.
type WorkloadResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Seconds   float64 `json:"seconds"`
	Reps      int     `json:"reps"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// SimDigest hashes per-flow virtual completion times, Steps and
	// the registry contents of the sublayered sim phase; it must be
	// identical on every rep and on sharded:2. Empty on rpc-rt, whose
	// timed backend is the wall clock.
	SimDigest string          `json:"sim_digest,omitempty"`
	Metrics   map[string]Stat `json:"metrics"`
	Notes     []string        `json:"notes,omitempty"`
}

// SuiteResult is the -json file: host description plus one entry per
// workload run (a workload appears twice when both the end-to-end and
// the traced run were made).
type SuiteResult struct {
	Host      HostInfo         `json:"host"`
	Workloads []WorkloadResult `json:"workloads"`
}

// HostInfo is written into every result so numbers are never quoted
// without the machine that produced them.
type HostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func hostInfo() HostInfo {
	h := HostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// samples accumulates per-rep values by metric name.
type samples struct {
	unit map[string]string
	vals map[string][]float64
}

func newSamples() *samples {
	return &samples{unit: map[string]string{}, vals: map[string][]float64{}}
}

func (s *samples) add(name, unit string, v float64) {
	s.unit[name] = unit
	s.vals[name] = append(s.vals[name], v)
}

func (s *samples) stats() map[string]Stat {
	out := make(map[string]Stat, len(s.vals))
	for name, vs := range s.vals {
		q1, med, q3 := quartiles(vs)
		out[name] = Stat{Unit: s.unit[name], Median: med, Q1: q1, Q3: q3, N: len(vs)}
	}
	return out
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads this program prints are the ones the acceptance procedure
// computes.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// percentile is nearest-rank over an unsorted slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// contractLine renders the one JSON object the run contract wants as
// the last line of standard output: exactly the listed metrics.
func contractLine(r *WorkloadResult, names []string) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, n := range names {
		st, ok := r.Metrics[n]
		if !ok || math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
			return "", fmt.Errorf("metric %s missing or not finite", n)
		}
		out.Metrics[n] = mv{Value: st.Median, Unit: st.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printTable lists every metric by name with unit, median, quartiles
// and sample count.
func printTable(r *WorkloadResult) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("== %s  %s  seed=%d scale=%g reps=%d attempted=%d failed=%d correct=%v",
		r.Workload, kind, r.Seed, r.Scale, r.Reps, r.Attempted, r.Failed, r.Correct)
	if r.SimDigest != "" {
		fmt.Printf(" sim_digest=%s", r.SimDigest)
	}
	fmt.Println()
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := r.Metrics[n]
		fmt.Printf("  %-36s %14.6g %-8s q1=%-12.6g q3=%-12.6g n=%d\n", n, st.Median, st.Unit, st.Q1, st.Q3, st.N)
	}
	for _, note := range r.Notes {
		fmt.Printf("  note: %s\n", note)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs this binary again for one workload and returns what
// it wrote with -json. Each workload gets its own process so peak
// RSS, heap state and GC pacing of one never leak into the next.
func runChild(args []string, jsonPath string) (*SuiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append(args, "-json", jsonPath)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	return readSuite(jsonPath)
}

func readSuite(path string) (*SuiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s SuiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
