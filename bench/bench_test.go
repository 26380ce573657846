package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/transport/harness"
)

// smoke is the -scale the tests run every workload at.
const smoke = 0.01

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the compiled-in tables are the same list.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file  %+v\n table %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, f.EndToEnd...), f.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// checkEmitted asserts the contract line carries exactly the listed
// metrics, each once, each finite.
func checkEmitted(t *testing.T, res *WorkloadResult, defs []metricDef) {
	t.Helper()
	line, err := contractLine(res, defNames(defs))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%v", out.Correct, out.Attempted, out.Failed, res.Notes)
	}
	var got, want []string
	for n, m := range out.Metrics {
		got = append(got, n)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s is not finite", n)
		}
	}
	for _, d := range defs {
		want = append(want, d.Name)
		if out.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s has unit %q, want %q", d.Name, out.Metrics[d.Name].Unit, d.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("emitted metrics differ from the list:\n got  %v\n want %v", got, want)
	}
}

// Every workload, end-to-end and traced, emits every listed metric and
// fails no operation.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, wl := range workloadNames {
		e2e, err := runEndToEnd(runOpts{workload: wl, seed: 7, reps: 2, scale: smoke})
		if err != nil {
			t.Fatalf("%s end-to-end: %v", wl, err)
		}
		checkEmitted(t, e2e, f.EndToEnd)
		if e2e.Metrics["setup_s"].N != 2 {
			t.Errorf("%s: setup_s has %d samples, want one per rep", wl, e2e.Metrics["setup_s"].N)
		}
		traced, err := runTraced(runOpts{workload: wl, seed: 7, scale: smoke})
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		checkEmitted(t, traced, f.PerLayer)
		if traced.Metrics["sharded.identical"].Median != 1 {
			t.Errorf("%s: sim, sharded:1 and sharded:2 digests differ: %v", wl, traced.Notes)
		}
		// At full scale the top-level spans tile the rep to within 2 %;
		// a smoke rep is a few milliseconds, so the meter's two
		// ReadMemStats calls between spans are a visible share of it.
		if share := traced.Metrics["trace.top_level_share"].Median; share < 0.5 || share > 1.0001 {
			t.Errorf("%s: top-level spans cover %.4f of the traced rep's wall time", wl, share)
		}
	}
}

// With the bufpool in debug mode and the sublayer contracts on: two
// reps and a sharded:2 rep of each workload agree on sim_digest, no
// contract is violated, and no pooled buffer outlives World.Close.
func TestDigestContractsAndLeaks(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	for _, wl := range workloadNames {
		var digests []string
		backends := []string{harness.BackendSim, harness.BackendSim, "sharded:2"}
		if wl == wRPC {
			backends = append(backends, harness.BackendChan)
		}
		for _, backend := range backends {
			r, err := runPhase(phaseSpec{workload: wl, kind: harness.KindSublayeredNative, backend: backend,
				seed: 11, scale: smoke, contracts: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", wl, backend, err)
			}
			if r.failed != 0 || r.ops == 0 || r.watchdog {
				t.Errorf("%s on %s: %d of %d operations failed (watchdog=%v)", wl, backend, r.failed, r.ops, r.watchdog)
			}
			if r.checks == 0 || r.violations != 0 {
				t.Errorf("%s on %s: %d contract checks, %d violations", wl, backend, r.checks, r.violations)
			}
			if n := bufpool.InUse(); n != 0 {
				t.Errorf("%s on %s: %d pooled buffers still checked out after Close", wl, backend, n)
			}
			if !harness.Realtime(backend) {
				digests = append(digests, r.digest)
			}
		}
		for _, d := range digests {
			if d == "" || d != digests[0] {
				t.Errorf("%s: sim_digest differs across reps and engines: %v", wl, digests)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "setup_s", Unit: "s", Better: lo, Bound: 0.10}
	higher := metricDef{Name: "goodput_MBps", Unit: "MB/s", Better: hi, Bound: 0.10}
	tight := func(m float64) Stat { return Stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 9} }
	wide := func(m float64) Stat { return Stat{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 9} }
	cases := []struct {
		name string
		a, b Stat
		def  metricDef
		want string
	}{
		{"within bound", tight(1), tight(1.05), lower, verdictSame},
		{"lower-better got higher", tight(1), tight(1.2), lower, verdictWorse},
		{"lower-better got lower", tight(1), tight(0.8), lower, verdictBetter},
		{"higher-better got lower", tight(100), tight(80), higher, verdictWorse},
		{"higher-better got higher", tight(100), tight(120), higher, verdictBetter},
		{"noisy and overlapping", wide(1), wide(1.15), lower, verdictUnresolved},
		{"noisy but clear of the other's quartiles", wide(1), wide(0.5), lower, verdictBetter},
		{"noisy and worse is still unresolved", wide(100), wide(50), higher, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(setup float64, failed int) *SuiteResult {
		return &SuiteResult{Workloads: []WorkloadResult{{Workload: wBulk, Attempted: 10, Failed: failed,
			Metrics: map[string]Stat{"setup_s": tight(setup)}}}}
	}
	rows, more := compareSuites(mk(1, 0), mk(1.3, 1), []metricDef{lower})
	if len(rows) != 1 || rows[0].verdict != verdictWorse || len(more) != 1 {
		t.Errorf("compareSuites: rows %+v, more failures %v", rows, more)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

// The payload stream is position-addressable: any split of a stream
// into writes regenerates and verifies the same bytes.
func TestStreamFillAndCheck(t *testing.T) {
	const key, n = 0xfeed, 4099
	whole := make([]byte, n)
	fillStream(key, 0, whole)
	for _, step := range []int{1, 3, 8, 13, 1000} {
		got := make([]byte, n)
		for off := 0; off < n; off += step {
			end := min(off+step, n)
			fillStream(key, uint64(off), got[off:end])
			if !checkStream(key, uint64(off), whole[off:end]) {
				t.Fatalf("step %d: checkStream rejects its own stream at %d", step, off)
			}
		}
		if string(got) != string(whole) {
			t.Fatalf("step %d: chunked fill differs from the whole", step)
		}
	}
	whole[n/2] ^= 1
	if checkStream(key, 0, whole) {
		t.Error("checkStream accepts a flipped bit")
	}
}
