package main

import (
	"fmt"
	"time"

	"repro/internal/transport/harness"
)

// minReps is the fewest timed reps a run reports a median over, however
// short -seconds is.
const minReps = 3

// timedBackend is the backend the end-to-end phases of a workload run on.
func timedBackend(workload string) string {
	if workload == wRPC {
		return harness.BackendChan
	}
	return harness.BackendSim
}

// runOpts is one workload run as the command line describes it.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	reps     int // > 0 fixes the rep count and ignores seconds
	scale    float64
	spanPath string
}

// tally accumulates operations across phases; a digest mismatch fails
// every operation of the phase that produced it.
type tally struct {
	attempted, failed int
	digest            string // the sublayered stack's reference digest
	notes             []string
}

func (t *tally) add(label string, r *phaseResult) {
	t.attempted += r.ops
	t.failed += r.failed
	if r.watchdog {
		t.notes = append(t.notes, label+": watchdog fired before every operation resolved")
	}
}

// checkDigest compares a virtual-time phase's digest with *ref — the
// first one seen for that stack — and fails the whole phase on a
// mismatch. Wall-clock phases have no digest.
func (t *tally) checkDigest(label string, r *phaseResult, ref *string) {
	switch {
	case r.digest == "":
	case *ref == "":
		*ref = r.digest
	case r.digest != *ref:
		t.failed += r.ops - r.failed
		t.notes = append(t.notes, fmt.Sprintf("%s: sim_digest %s differs from %s", label, r.digest, *ref))
	}
}

// runEndToEnd is the --trace 0 run: one untimed warm-up rep, then
// timed reps of alternating sublayered and monolithic phases until the
// run has measured for opts.seconds. Every metric is the median over
// reps. Tracing, contracts and bufpool debug are off.
func runEndToEnd(opts runOpts) (*WorkloadResult, error) {
	backend := timedBackend(opts.workload)
	phase := func(kind harness.Kind) (phaseResult, error) {
		return runPhase(phaseSpec{workload: opts.workload, kind: kind, backend: backend, seed: opts.seed, scale: opts.scale})
	}
	for _, k := range []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic} {
		if _, err := phase(k); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	s := newSamples()
	var tl tally
	var monoDigest string
	start := time.Now()
	reps := 0
	for ; ; reps++ {
		if opts.reps > 0 {
			if reps >= opts.reps {
				break
			}
		} else if reps >= minReps && time.Since(start).Seconds() >= opts.seconds {
			break
		}
		// Alternate which stack goes first so neither always inherits
		// the other's heap and cache state.
		var sub, mono phaseResult
		var err error
		if reps%2 == 0 {
			if sub, err = phase(harness.KindSublayeredNative); err == nil {
				mono, err = phase(harness.KindMonolithic)
			}
		} else {
			if mono, err = phase(harness.KindMonolithic); err == nil {
				sub, err = phase(harness.KindSublayeredNative)
			}
		}
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("rep %d", reps)
		tl.add(label+" sublayered", &sub)
		tl.add(label+" monolithic", &mono)
		// The two stacks legitimately differ from each other; each must
		// agree with itself across reps.
		tl.checkDigest(label+" sublayered", &sub, &tl.digest)
		tl.checkDigest(label+" monolithic", &mono, &monoDigest)
		// Host seconds of the virtual-time workloads are stated in
		// reference-host seconds (probe.go); rpc-rt's are wall seconds.
		subS, monoS := sub.ref(sub.steadyS), mono.ref(mono.steadyS)
		s.add("setup_s", "s", sub.ref(sub.setupS)+mono.ref(mono.setupS))
		s.add("goodput_MBps", "MB/s", float64(sub.bytes)/1e6/subS)
		s.add("mono_goodput_MBps", "MB/s", float64(mono.bytes)/1e6/monoS)
		s.add("flows_per_s", "1/s", float64(sub.ops-sub.failed)/subS)
		s.add("mono_flows_per_s", "1/s", float64(mono.ops-mono.failed)/monoS)
		s.add("sub_mono_cost_ratio", "ratio", sub.costS()/mono.costS())
		s.add("events_per_s", "1/s", float64(sub.steps)/subS)
		s.add("allocs_per_event", "count", float64(sub.mallocs)/float64(sub.steps))
		if sub.hostSpeed > 0 {
			// Not a listed metric: printed so a reader sees the weather.
			s.add("host_speed", "ratio", sub.hostSpeed)
		}
	}
	return &WorkloadResult{Workload: opts.workload, Seed: opts.seed, Scale: opts.scale, Seconds: opts.seconds,
		Reps: reps, Correct: tl.failed == 0 && tl.attempted > 0, Attempted: tl.attempted, Failed: tl.failed,
		SimDigest: tl.digest, Metrics: s.stats(), Notes: tl.notes}, nil
}
