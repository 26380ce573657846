// Package fuzzer is the compositional fault-schedule fuzzer: it draws
// random but seed-reproducible fault schedules plus workload shapes,
// drives the same schedule through both TCP implementations, and
// asserts the cross-stack differential invariant — both stacks deliver
// exactly the bytes that were sent, no sublayer contract or watchdog
// violation fires, and the pooled and allocating tcpwire codecs agree
// on every wire crossing.
//
// The oracle is compositional in the paper's sense: the sublayered and
// monolithic TCPs are two decompositions of the same service, so any
// behavioral divergence under an identical failure history is a bug in
// one of them (or in a sublayer contract), not a matter of taste. The
// fuzzer only generates *healing* schedules (every fault bounded, total
// down time capped), which is what entitles it to demand completion —
// "did not finish" is then a differential signal, not noise.
//
// A failing case auto-shrinks (greedy delta debugging over fault
// steps, then magnitudes, then payload sizes) to a minimal reproducer
// that persists as a human-readable JSON corpus file; with tracing on,
// the failure also emits its causal chain and a pcapng capture via
// trace.Collector.
package fuzzer

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/faults"
)

// Case is one fuzz input: a seed-derived workload shape plus a fault
// schedule. Everything a run needs is in the Case, so a serialized
// Case is a complete reproducer.
type Case struct {
	Name string `json:"name"`
	// Seed drives the simulated world (link RNG), the injector RNG and
	// the payload bytes. Both stacks run under the same seed, so they
	// see the identical failure history.
	Seed int64 `json:"seed"`
	// C2S/S2C are the transfer sizes in bytes, client→server and back.
	C2S int `json:"c2s"`
	S2C int `json:"s2c"`
	// Hosts is the line-topology length (end hosts at 1 and Hosts).
	Hosts int `json:"hosts"`
	// Script is the fault schedule, serialized in the faults package's
	// human-readable JSON form.
	Script faults.Script `json:"script"`
}

// Steps returns the number of fault events in the schedule.
func (c Case) Steps() int { return len(c.Script.Steps) }

// String renders the case for logs.
func (c Case) String() string {
	return fmt.Sprintf("%s: seed=%d c2s=%d s2c=%d %v", c.Name, c.Seed, c.C2S, c.S2C, c.Script)
}

// NewCase derives a complete fuzz case from one seed. Same seed, same
// case — a reproducer is just the seed, and the corpus file is only a
// convenience (plus the shrunk form, which no seed generates).
func NewCase(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	script := faults.GenScript(rng)
	script.Name = fmt.Sprintf("fuzz-%d", seed)
	return Case{
		Name:   fmt.Sprintf("seed-%d", seed),
		Seed:   seed,
		C2S:    20_000 + rng.Intn(130_000),
		S2C:    10_000 + rng.Intn(70_000),
		Hosts:  faults.GenHosts,
		Script: script,
	}
}

// payload derives the deterministic transfer bytes for one direction.
func payload(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// MarshalIndent renders the case as the canonical reproducer file.
func (c Case) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseCase loads a reproducer produced by MarshalIndent. The embedded
// script re-validates on decode, so a hand-edited file fails loudly.
func ParseCase(b []byte) (Case, error) {
	var c Case
	if err := json.Unmarshal(b, &c); err != nil {
		return Case{}, err
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.C2S <= 0 || c.S2C <= 0 {
		return Case{}, fmt.Errorf("fuzzer: case %q: non-positive transfer size", c.Name)
	}
	return c, nil
}
