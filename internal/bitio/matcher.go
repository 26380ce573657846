package bitio

// Matcher is a Knuth–Morris–Pratt automaton over a bit pattern. Feeding
// it a stream of bits one at a time, it reports after each bit whether
// the pattern has just completed at the current position (matches may
// overlap). Matcher is the workhorse of both the stuffing engine and the
// flag-hunting deframer; having exactly one matching automaton shared by
// the sender and the receiver is what makes the round-trip proofs in
// internal/stuffing compositional.
type Matcher struct {
	pattern Bits
	fail    []int
	state   int
}

// NewMatcher compiles a matcher for pattern p. It panics on an empty
// pattern, which has no sensible streaming-match semantics.
func NewMatcher(p Bits) *Matcher {
	if p.Len() == 0 {
		panic("bitio: NewMatcher on empty pattern")
	}
	m := &Matcher{pattern: p, fail: make([]int, p.Len()+1)}
	// Standard KMP failure function: fail[i] is the length of the
	// longest proper prefix of p that is a suffix of p[:i].
	m.fail[0], m.fail[1] = 0, 0
	k := 0
	for i := 1; i < p.Len(); i++ {
		for k > 0 && p.At(i) != p.At(k) {
			k = m.fail[k]
		}
		if p.At(i) == p.At(k) {
			k++
		}
		m.fail[i+1] = k
	}
	return m
}

// State returns the current automaton state: the length of the longest
// suffix of the fed stream that is a prefix of the pattern.
func (m *Matcher) State() int { return m.state }

// SetState forces the automaton into state s. Used by the validity
// analyser in internal/stuffing to explore the product automaton.
func (m *Matcher) SetState(s int) {
	if s < 0 || s > m.pattern.Len() {
		panic("bitio: SetState out of range")
	}
	m.state = s
}

// Feed advances the automaton by one bit and reports whether the pattern
// completes exactly at this bit.
func (m *Matcher) Feed(b Bit) (matched bool) {
	m.state = m.Next(m.state, b)
	return m.state == m.pattern.Len()
}

// Next returns the successor of state s on input bit b without mutating
// the matcher. States range over [0, len(pattern)]; the accepting state
// len(pattern) transitions as if through its failure state, which gives
// overlapping-match semantics.
func (m *Matcher) Next(s int, b Bit) int {
	if s == m.pattern.Len() {
		s = m.fail[s]
	}
	for s > 0 && m.pattern.At(s) != b {
		s = m.fail[s]
	}
	if m.pattern.At(s) == b {
		s++
	}
	return s
}

// Reset returns the automaton to its initial state.
func (m *Matcher) Reset() { m.state = 0 }

// FeedAll feeds every bit of s and returns the positions (bit index of
// the last bit of each occurrence) at which the pattern matched.
func (m *Matcher) FeedAll(s Bits) []int {
	var hits []int
	for i := 0; i < s.Len(); i++ {
		if m.Feed(s.At(i)) {
			hits = append(hits, i)
		}
	}
	return hits
}
