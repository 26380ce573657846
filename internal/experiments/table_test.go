package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestExperimentTable pins the table every tool reads: each id is
// lower-case and appears once, the wall-clock soaks come after every
// deterministic experiment, and the deterministic order is the order
// of the committed manifest, BENCH_metrics.json.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	wall := false
	for i, e := range table {
		if e.id == "" || e.id != strings.ToLower(strings.TrimSpace(e.id)) {
			t.Errorf("table[%d] = %q: want a non-empty, trimmed, lower-case id", i, e.id)
		}
		if seen[e.id] {
			t.Errorf("table[%d]: duplicate id %q", i, e.id)
		}
		seen[e.id] = true
		if wall && !e.wall {
			t.Errorf("table[%d] = %q: a deterministic experiment after a wall-clock one", i, e.id)
		}
		wall = wall || e.wall
	}

	raw, err := os.ReadFile("../../BENCH_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Experiments []struct{ ID string } `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, e := range manifest.Experiments {
		committed = append(committed, strings.ToLower(e.ID))
	}
	if got := IDs(); !reflect.DeepEqual(got, committed) {
		t.Errorf("IDs() = %v, want the manifest's order %v", got, committed)
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
