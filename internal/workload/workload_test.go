package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/transport/harness"
)

// TestSmallWorkloadCompletes: every flow finishes intact on both
// stacks through the identical engine code path.
func TestSmallWorkloadCompletes(t *testing.T) {
	for _, k := range []harness.Kind{harness.KindSublayeredNative, harness.KindSublayeredShim, harness.KindMonolithic} {
		r := Run(Config{Seed: 3, Flows: 25, Client: k, Server: k})
		if r.Completed != 25 || r.Failed != 0 {
			t.Errorf("%s: completed=%d failed=%d", k, r.Completed, r.Failed)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: watchdog violations: %v", k, r.Violations)
		}
		if r.Fairness <= 0 || r.Fairness > 1 {
			t.Errorf("%s: Jain index %v out of range", k, r.Fairness)
		}
		if r.FCTp50 <= 0 || r.FCTp99 < r.FCTp50 {
			t.Errorf("%s: percentiles p50=%v p99=%v", k, r.FCTp50, r.FCTp99)
		}
		if r.BytesDelivered != r.BytesSent {
			t.Errorf("%s: delivered %d of %d bytes", k, r.BytesDelivered, r.BytesSent)
		}
		if _, ok := r.Metrics.Get("workload/fct_ms"); !ok {
			t.Errorf("%s: snapshot missing workload/fct_ms", k)
		}
		if got, _ := r.Metrics.Get("workload/flows_completed"); got.Value != 25 {
			t.Errorf("%s: workload/flows_completed = %d", k, got.Value)
		}
	}
}

// TestConcurrentSimulatorsShareBufpool runs independent simulations in
// parallel goroutines. Every stack draws wire buffers from the shared
// size-classed pool, so under -race this is the check that concurrent
// simulators cannot corrupt each other through buffer recycling.
func TestConcurrentSimulatorsShareBufpool(t *testing.T) {
	kinds := []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic,
		harness.KindSublayeredShim, harness.KindSublayeredNative}
	done := make(chan error, len(kinds))
	for i, k := range kinds {
		go func(seed int64, k harness.Kind) {
			r := Run(Config{Seed: seed, Flows: 40, Client: k, Server: k})
			if r.Completed != 40 || r.Failed != 0 {
				done <- fmt.Errorf("%s seed %d: completed=%d failed=%d", k, seed, r.Completed, r.Failed)
				return
			}
			done <- nil
		}(int64(i+1), k)
	}
	for range kinds {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestMixedStacksInterop drives a sublayered-shim client against a
// monolithic server — the engine only sees transport.Stack, so the
// interop pairing is one Config change.
func TestMixedStacksInterop(t *testing.T) {
	r := Run(Config{Seed: 5, Flows: 30, Client: harness.KindSublayeredShim, Server: harness.KindMonolithic})
	if r.Completed != 30 || len(r.Violations) != 0 {
		t.Fatalf("completed=%d violations=%v", r.Completed, r.Violations)
	}
}

// TestReportDeterministic pins the engine's contract: the same Config
// marshals to byte-identical JSON, different seeds differ.
func TestReportDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Flows: 40}
	a, _ := json.Marshal(Run(cfg))
	b, _ := json.Marshal(Run(cfg))
	if !bytes.Equal(a, b) {
		t.Error("same seed, different reports")
	}
	cfg.Seed = 8
	c, _ := json.Marshal(Run(cfg))
	if bytes.Equal(a, c) {
		t.Error("different seeds, identical reports")
	}
}

// runSeeds runs one full simulation per seed on a pool of workers
// goroutines and returns the reports index-aligned with seeds.
func runSeeds(cfg Config, seeds []int64, workers int) []*Report {
	out := make([]*Report, len(seeds))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c := cfg
				c.Seed = seeds[i]
				out[i] = Run(c)
			}
		}()
	}
	for i := range seeds {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// TestRunSeedsParallelMatchesSerial is the check that there is no
// hidden global: each simulation owns its simulator, registry and
// RNGs, so four concurrent simulators return byte-identical reports,
// in the same order, as one worker running them back to back.
func TestRunSeedsParallelMatchesSerial(t *testing.T) {
	cfg := Config{Seed: 0, Flows: 20}
	seeds := []int64{11, 12, 13, 14, 15, 16}
	serial := runSeeds(cfg, seeds, 1)
	parallel := runSeeds(cfg, seeds, 4)
	for i := range seeds {
		if serial[i].Seed != seeds[i] {
			t.Errorf("serial[%d].Seed = %d, want %d", i, serial[i].Seed, seeds[i])
		}
		a, _ := json.Marshal(serial[i])
		b, _ := json.Marshal(parallel[i])
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: parallel report differs from serial", seeds[i])
		}
	}
}

// allocsPerEventCeiling bounds heap allocations per simulator event
// for one 1,000-flow run, per stack. The measured values are 0.574
// (sublayered) and 0.194 (monolithic), repeating to the third digit at
// any GOMAXPROCS, and 0.636 / 0.239 under the race detector, whose
// sync.Pool drops a share of what is put back. (Sublayered read 0.643,
// 0.706 under race, while each connection was adopted as its own
// registry group: a group entry, a lister func value, a "conn<n>" name
// and its scoped join, where joining the stack's "conn" family now
// allocates nothing, and the final snapshot made 4 objects per
// connection where it now makes 2. 0.699 and 0.250 when ReadAll gave
// its buffer away and every read allocated the next one.) The
// ceilings are the race readings plus 10 %, so a Go release fits and
// a per-event or per-segment allocation added to either data path
// does not. Raise a ceiling only with the reason for the new
// allocations written here.
var allocsPerEventCeiling = map[harness.Kind]float64{
	harness.KindSublayeredNative: 0.70,
	harness.KindMonolithic:       0.27,
}

// TestThousandFlows is the E11 acceptance floor: a 1,000-flow run
// completes on both stacks with zero invariant violations, and costs
// no more allocations per event than allocsPerEventCeiling — mallocs
// and events counted over the same run. Both cells take well under a
// second, so -short runs them too: the ceiling is checked wherever the
// suite is.
func TestThousandFlows(t *testing.T) {
	for _, k := range []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Run(Config{Seed: 1, Flows: 1000, Client: k, Server: k})
		runtime.ReadMemStats(&after)
		if r.Completed != 1000 {
			t.Errorf("%s: completed %d of 1000 (failed %d)", k, r.Completed, r.Failed)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: %d watchdog violations, first: %s", k, len(r.Violations), r.Violations[0])
		}
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(r.Events)
		t.Logf("%s: %.3f allocs/event over %d events", k, perEvent, r.Events)
		if limit := allocsPerEventCeiling[k]; perEvent > limit {
			t.Errorf("%s: %.3f allocs/event > ceiling %.2f", k, perEvent, limit)
		}
	}
}

// BenchmarkThousandFlows measures the engine alone at the E11
// ceiling: one 1,000-flow simulation, both payload directions counted.
func BenchmarkThousandFlows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Run(Config{Seed: 1, Flows: 1000})
		if r.Completed != 1000 || len(r.Violations) != 0 {
			b.Fatalf("completed=%d violations=%d", r.Completed, len(r.Violations))
		}
	}
}

// TestBakeoffSwapsControllers pins the engine-level CC axis on E12's
// 18-cell shape: Config.CC reaches both stacks' Config.CC, the fault
// script runs (the bursty regime records GE transitions in the
// snapshot), and every cell completes all flows intact.
func TestBakeoffSwapsControllers(t *testing.T) {
	if testing.Short() {
		t.Skip("18-cell matrix")
	}
	link := func(loss float64) netsim.LinkConfig {
		return netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 10_000_000, QueueLimit: 64, LossProb: loss}
	}
	bursty := faults.Script{Name: "ge-bursty", Steps: []faults.Step{{Fault: faults.BurstyLoss{A: 2, B: 3,
		GE: faults.GEConfig{MeanGood: 300 * time.Millisecond, MeanBad: 50 * time.Millisecond, LossBad: 0.3}}}}}
	regimes := []struct {
		name   string
		link   netsim.LinkConfig
		script faults.Script
	}{{"clean", link(0), faults.Script{}}, {"random-loss", link(0.02), faults.Script{}}, {"bursty", link(0), bursty}}
	for _, kind := range []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic} {
		for _, cc := range []string{"newreno", "cubic", "bbrlite"} {
			for _, rg := range regimes {
				r := Run(Config{Seed: 21, Flows: 8, Client: kind, Server: kind, CC: cc, Link: rg.link, Script: rg.script})
				if r.CC != cc {
					t.Errorf("%s/%s/%s: report cc = %q", kind, cc, rg.name, r.CC)
				}
				if r.Completed != 8 || len(r.Violations) != 0 {
					t.Errorf("%s/%s/%s: completed=%d violations=%v",
						kind, cc, rg.name, r.Completed, r.Violations)
				}
				if _, ok := r.Metrics.Get("faults/ge_transitions"); len(rg.script.Steps) > 0 && !ok {
					t.Errorf("%s/%s/bursty: snapshot missing fault-injector counters", kind, cc)
				}
			}
		}
	}
}
