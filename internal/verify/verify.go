// Package verify is the reproduction's verification substrate — the
// stand-in for the paper's Coq and Dafny developments (§4).
//
// Go has no production proof assistant, so the paper's mechanized
// proofs are substituted with mechanized checking, three ways:
//
//   - Contracts: runtime pre/post-conditions and invariants attached to
//     sublayer boundaries, enabled in tests. A sublayer's contract is
//     the executable form of its Dafny postcondition; localizing a bug
//     to the first violated contract is the paper's debugging story.
//   - Lemmas: a registry of named, executable properties. Each entry
//     corresponds to a lemma in the paper's proof structure; running
//     the registry reports how many hold, comparable to the paper's
//     "57 lemmas" (bit stuffing) and "30 lemmas" (lwIP TCP) counts.
//   - ExhaustiveBits / ExhaustiveBytes: bounded-exhaustive enumeration
//     of small inputs, the model-checking complement to the exact
//     automaton analyses in internal/stuffing.
//
// The package also reads frame annotations from source for experiment
// E6 (Load, Source.Frames): which per-connection fields each protocol
// handler reads and writes, found by type-checking the stack's Go
// files, from which the entanglement metrics (shared variables, O(N²)
// handler interaction pairs) are computed for the monolithic versus
// sublayered TCPs. Source.CrossSublayer is the same reading turned
// into T3's disjoint-state litmus.
package verify

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitio"
)

// Violation is a failed contract or lemma.
type Violation struct {
	Name   string
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("verify: %s: %s", v.Name, v.Detail)
}

// Mode selects what a failed check does.
type Mode int

const (
	// ModeOff disables checking (production).
	ModeOff Mode = iota
	// ModeRecord collects violations for later inspection.
	ModeRecord
	// ModePanic panics on the first violation (tests).
	ModePanic
)

// Checker evaluates contracts under a mode and accumulates violations.
// The zero value is an off checker.
type Checker struct {
	mode       Mode
	mu         sync.Mutex
	violations []Violation
	checks     uint64
}

// NewChecker returns a checker in the given mode.
func NewChecker(mode Mode) *Checker { return &Checker{mode: mode} }

// Check evaluates one condition. The name identifies the contract; the
// format/args describe the violation.
func (c *Checker) Check(cond bool, name, format string, args ...any) {
	if c == nil || c.mode == ModeOff {
		return
	}
	c.mu.Lock()
	c.checks++
	c.mu.Unlock()
	if cond {
		return
	}
	v := Violation{Name: name, Detail: fmt.Sprintf(format, args...)}
	if c.mode == ModePanic {
		panic(&v)
	}
	c.mu.Lock()
	c.violations = append(c.violations, v)
	c.mu.Unlock()
}

// Violations returns the recorded violations.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Checks returns how many conditions were evaluated.
func (c *Checker) Checks() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks
}

// Lemma is a named executable property. Run returns an error describing
// the first counterexample, or nil if the property holds.
type Lemma struct {
	Name  string
	About string // which sublayer/module the lemma belongs to
	Run   func() error
}

// Registry collects lemmas; each lemma names the module it is about, so
// a failure reads "module/lemma".
type Registry struct {
	mu     sync.Mutex
	lemmas []Lemma
}

// Add registers a lemma.
func (r *Registry) Add(about, name string, run func() error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lemmas = append(r.lemmas, Lemma{Name: name, About: about, Run: run})
}

// Len returns the number of registered lemmas.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lemmas)
}

// Modules returns the modules the lemmas are about, each once, in the
// order their first lemma was registered.
func (r *Registry) Modules() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, l := range r.lemmas {
		if !slices.Contains(out, l.About) {
			out = append(out, l.About)
		}
	}
	return out
}

// RunAll executes every lemma and returns the failures.
func (r *Registry) RunAll() []Violation {
	r.mu.Lock()
	lemmas := make([]Lemma, len(r.lemmas))
	copy(lemmas, r.lemmas)
	r.mu.Unlock()
	var out []Violation
	for _, l := range lemmas {
		if err := l.Run(); err != nil {
			out = append(out, Violation{Name: l.About + "/" + l.Name, Detail: err.Error()})
		}
	}
	return out
}

// ExhaustiveBits invokes fn on every bit string of length 0 through
// maxLen (inclusive) and returns the first input for which fn returns
// an error. This is the bounded model checker used to cross-validate
// the stuffing proofs.
func ExhaustiveBits(maxLen int, fn func(bitio.Bits) error) (bitio.Bits, error) {
	for n := 0; n <= maxLen; n++ {
		for v := 0; v < 1<<uint(n); v++ {
			w := bitio.NewWriter(n)
			for i := n - 1; i >= 0; i-- {
				w.WriteBit(bitio.Bit(v>>uint(i)) & 1)
			}
			b := w.Bits()
			if err := fn(b); err != nil {
				return b, err
			}
		}
	}
	return bitio.Bits{}, nil
}
