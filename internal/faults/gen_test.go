package faults

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestGenScriptDeterministicValidHealing: generated schedules are the
// fuzzer's input space, so three properties are load-bearing — same
// seed means same schedule (reproducers are just seeds), every schedule
// passes its own admission checks, and every schedule is healing (all
// faults bounded, down budget capped) so completion is owed.
func TestGenScriptDeterministicValidHealing(t *testing.T) {
	cfg := GenConfig{}
	links := LineLinks(4)
	for seed := int64(0); seed < 200; seed++ {
		s1 := GenScript(rand.New(rand.NewSource(seed)), cfg)
		s2 := GenScript(rand.New(rand.NewSource(seed)), cfg)
		j1, err := json.Marshal(s1)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		j2, _ := json.Marshal(s2)
		if string(j1) != string(j2) {
			t.Fatalf("seed %d: same seed, different schedule:\n%s\n%s", seed, j1, j2)
		}
		if len(s1.Steps) == 0 {
			t.Errorf("seed %d: empty schedule", seed)
		}
		if err := s1.Validate(); err != nil {
			t.Errorf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if err := s1.CheckConflicts(links); err != nil {
			t.Errorf("seed %d: generated schedule conflicts: %v", seed, err)
		}
		for i, st := range s1.Steps {
			if st.For <= 0 {
				t.Errorf("seed %d step %d: permanent fault %s in a healing schedule", seed, i, st.Fault)
			}
			if st.At < 200*time.Millisecond {
				t.Errorf("seed %d step %d: fault at %v hits the handshake window", seed, i, st.At)
			}
			if i > 0 && st.At < s1.Steps[i-1].At {
				t.Errorf("seed %d: steps not time-sorted", seed)
			}
		}
	}
}

func TestGenScriptRoundTripsJSON(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		s := GenScript(rand.New(rand.NewSource(seed)), GenConfig{})
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var back Script
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		b2, _ := json.Marshal(back)
		if string(b) != string(b2) {
			t.Errorf("seed %d: round trip unstable:\n%s\n%s", seed, b, b2)
		}
	}
}

// TestGenScriptAppliesCleanly: admission checks against LineLinks must
// agree with Apply's checks against the real harness topology.
func TestGenScriptAppliesCleanly(t *testing.T) {
	sim, topo := buildLine(t, 31, 4, netsim.LinkConfig{Delay: time.Millisecond})
	for seed := int64(0); seed < 20; seed++ {
		inj := New(sim, topo, seed)
		s := GenScript(rand.New(rand.NewSource(seed)), GenConfig{})
		if err := inj.Apply(s); err != nil {
			t.Errorf("seed %d: generated schedule rejected by Apply: %v", seed, err)
		}
	}
	sim.RunFor(30 * time.Second) // the scheduled faults must not panic
}
