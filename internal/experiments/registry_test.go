package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestRegistryIDsNumericOrder pins the registry against Go's
// file-name init ordering: e10 registers before e1, but IDs must come
// back in ascending numeric order. Gaps are fine — ROADMAP reserves
// IDs (e13) ahead of experiments that land out of order.
func TestRegistryIDsNumericOrder(t *testing.T) {
	ids := IDs()
	if len(ids) < 10 {
		t.Fatalf("registered %d experiments: %v", len(ids), ids)
	}
	if ids[0] != "e1" {
		t.Errorf("ids[0] = %q, want %q (full order %v)", ids[0], "e1", ids)
	}
	prev := 0
	for i, id := range ids {
		n, err := strconv.Atoi(strings.TrimPrefix(id, "e"))
		if err != nil {
			t.Fatalf("ids[%d] = %q: not of the form eN", i, id)
		}
		if n <= prev {
			t.Errorf("ids[%d] = %q out of order after e%d (full order %v)", i, id, prev, ids)
		}
		prev = n
	}
}

func TestRegistryRun(t *testing.T) {
	if Run("e5", Config{Seed: 1}) == nil || Run(" E5 ", Config{Seed: 1}) == nil {
		t.Error("Run e5 nil")
	}
	if Run("nope", Config{Seed: 1}) != nil {
		t.Error("unknown id not nil")
	}
}

// TestRegistryRejectsDuplicates: double registration is a wiring bug
// and must panic rather than silently shadow an experiment.
func TestRegistryRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("e1", func(Config) *Result { return nil })
}
