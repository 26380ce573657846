// Package experiments regenerates every table of EXPERIMENTS.md — one
// function per experiment from DESIGN.md: the fifteen deterministic
// ones (E1–E14, E16) and the two wall-clock soaks (E13SOAK, E15).
// Each function builds its own simulated world from a seed, runs the
// workload, and returns a formatted table plus structured rows, so
// cmd/runreport, the root-level benchmarks and the tests all share
// one implementation.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Result is one regenerated experiment. It marshals deterministically:
// every field is ordered data, and Metrics snapshots are sorted by
// name, so the same seed yields byte-identical JSON.
type Result struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes carry the paper-vs-measured commentary.
	Notes []string `json:"notes,omitempty"`
	// Metrics is the merged registry snapshot of the experiment's
	// simulated worlds, one name prefix per scenario (e.g.
	// "loss05/n1/transport/conn0/rd/retransmits").
	Metrics metrics.Snapshot `json:"metrics"`
}

// Manifest is the committed form of a Result — what runreport writes
// to BENCH_metrics.json. The table fields marshal exactly as Result's
// do; Metrics shadows Result.Metrics in the encoding, replacing the
// sample dump by one digest per scenario, so the golden stays small
// and a drifted run differs in the one line naming what drifted.
type Manifest struct {
	*Result
	Metrics []ScenarioDigest `json:"metrics"`
}

// ScenarioDigest stands in for one scenario's samples: those whose
// names share a first path component, the prefix they were folded
// under.
type ScenarioDigest struct {
	Scenario string // "<experiment id>/<first name component>", e.g. "E11/flows0100"
	Samples  int
	SHA256   string // over each sample's compact JSON encoding plus "\n", in snapshot order
}

// MarshalText renders the digest as a single string, so that in the
// indented manifest a bare diff line carries the experiment and
// scenario it belongs to.
func (d ScenarioDigest) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%s samples=%d sha256=%s", d.Scenario, d.Samples, d.SHA256), nil
}

// Manifest projects the result into its committed form. Every field
// of every sample (name, kind, value, sum, each bucket) feeds its
// scenario's digest, so one flipped counter changes the manifest. A
// scenario's samples are adjacent because snapshots are name-sorted.
func (r *Result) Manifest() Manifest {
	m := Manifest{Result: r}
	samples := r.Metrics.Samples
	for i := 0; i < len(samples); {
		scenario, start := scenarioOf(samples[i].Name), i
		h := sha256.New()
		enc := json.NewEncoder(h)
		for ; i < len(samples) && scenarioOf(samples[i].Name) == scenario; i++ {
			if err := enc.Encode(samples[i]); err != nil {
				panic(err) // plain integers and strings into a hash: cannot fail
			}
		}
		m.Metrics = append(m.Metrics, ScenarioDigest{
			Scenario: r.ID + "/" + scenario,
			Samples:  i - start,
			SHA256:   hex.EncodeToString(h.Sum(nil)),
		})
	}
	return m
}

// scenarioOf is the first path component of a sample name.
func scenarioOf(name string) string {
	scenario, _, _ := strings.Cut(name, "/")
	return scenario
}

// Text renders the result as an aligned table.
func (r *Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// init registers E1–E10; E11 onwards register from their own files.
// Everything else (both cmd tools, the benchmarks) resolves
// experiments through the registry, so a new experiment is exactly
// one Register call.
func init() {
	Register("e1", E1DataLink)
	Register("e2", E2Routing)
	Register("e3", E3SublayeredTCP)
	Register("e4", E4Interop)
	Register("e5", E5Stuffing)
	Register("e6", E6Entanglement)
	Register("e7", E7Performance)
	Register("e8", E8Replace)
	Register("e9", E9Offload)
	Register("e10", E10ChaosSoak)
}
