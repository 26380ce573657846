package workload

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/transport/harness"
)

// reportJSON marshals a report the way the reporters do, so the
// comparison below is exactly the byte-identity CI gates on.
func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedMultiPairWorkload pins the E16 shape end to end: flows
// spread over several disjoint pairs, all completing, with the report
// byte-identical between the sequential and sharded engines at every
// shard count — including counts that do not divide the pair set
// evenly (cut links between shard blocks).
func TestShardedMultiPairWorkload(t *testing.T) {
	mk := func(backend string) *Report {
		return Run(Config{
			Seed: 17, Backend: backend, Flows: 24, Pairs: 4, Hops: 2,
			Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
			Budget: 2 * time.Minute,
		})
	}
	base := mk(harness.BackendSim)
	if base.Completed != 24 || base.Failed != 0 {
		t.Fatalf("sim: completed=%d failed=%d", base.Completed, base.Failed)
	}
	if len(base.Violations) != 0 {
		t.Fatalf("sim: violations: %v", base.Violations)
	}
	baseJSON := reportJSON(t, base)
	for _, backend := range []string{"sharded:2", "sharded:3", "sharded:4"} {
		got := mk(backend)
		if got.Completed != 24 {
			t.Errorf("%s: completed=%d", backend, got.Completed)
		}
		if !bytes.Equal(baseJSON, reportJSON(t, got)) {
			t.Errorf("multi-pair report differs between sim and %s", backend)
		}
	}
}
