package stuffing

import (
	"fmt"

	"repro/internal/bitio"
)

// This file is the reproduction's stand-in for the paper's Coq proof:
// an exact decision procedure for rule correctness. The Coq development
// proves Unstuff(RemoveFlags(AddFlags(Stuff(D)))) = D together with
// flag-transparency lemmas; here the same facts are established by
// analysing the product of two finite automata, which decides the
// property for ALL data strings (not a bounded subset):
//
//   - the stuffer automaton: a KMP matcher for Watch running over the
//     sender's output stream, with a stuff bit injected at each accept;
//   - the receiver's flag matcher: a KMP matcher for Flag running over
//     the framed stream (opening flag, stuffed payload, closing flag).
//
// The rule is valid iff, over every data input:
//
//  (V1) stuffing terminates — the stuff bit never immediately
//       re-completes Watch (otherwise the sender inserts forever);
//  (V2) Flag never occurs inside the stuffed payload, nor spanning the
//       opening flag and the payload (no false frame start);
//  (V3) feeding the closing flag after any reachable payload never
//       completes Flag early (no false frame end: the paper's "some
//       flags can cause a false flag to occur using the data and a
//       prefix of the end flag");
//  (V4) round trip: guaranteed by construction given V1, because sender
//       and receiver run the identical Watch automaton over the
//       identical bit stream, so the receiver deletes exactly the
//       positions the sender inserted. The tests cross-check V4 against
//       bounded-exhaustive enumeration of the executable spec.

// Invalidity describes why Validate rejected a rule.
type Invalidity struct {
	Check  string // "V1".."V3" or "shape"
	Detail string
}

func (e *Invalidity) Error() string {
	return fmt.Sprintf("stuffing: invalid rule (%s): %s", e.Check, e.Detail)
}

// Validate decides whether the rule is correct for all data strings. A
// nil return means the round-trip specification and unambiguous framing
// hold universally; otherwise the returned *Invalidity says which check
// failed.
func (r Rule) Validate() error {
	if r.Flag.Len() < 2 {
		return &Invalidity{"shape", "flag must be at least 2 bits"}
	}
	if r.Watch.Len() < 1 {
		return &Invalidity{"shape", "watch must be nonempty"}
	}
	wm := bitio.NewMatcher(r.Watch)
	fm := bitio.NewMatcher(r.Flag)
	W, F := r.Watch.Len(), r.Flag.Len()

	// V1: after a match, feeding the stuff bit must not re-match.
	if wm.Next(W, r.Insert) == W {
		return &Invalidity{"V1", "stuff bit immediately re-completes the watch pattern"}
	}

	// Explore the reachable product states (sw, sf). sw is the stuffer
	// state over the payload stream (flags are invisible to the
	// stuffing sublayer — T3). sf is the receiver's flag-matcher state
	// over the payload: the receiver resets its hunt after detecting
	// the opening flag (see Deframe), so both automata start at 0.
	type state struct{ sw, sf int }
	start := state{0, 0}
	seen := map[state]bool{start: true}
	queue := []state{start}
	// step advances the product by one emitted bit and reports a false
	// flag if the flag matcher accepts.
	step := func(s state, b bitio.Bit) (state, bool) {
		sw := wm.Next(s.sw, b)
		sf := fm.Next(s.sf, b)
		return state{sw, sf}, sf == F
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]

		// V3: if the payload ended here, would the closing flag be
		// detected early? Feed all but the last flag bit; any accept
		// within that prefix is a false (early) frame end.
		sf := s.sf
		for j := 0; j < F-1; j++ {
			sf = fm.Next(sf, r.Flag.At(j))
			if sf == F {
				return &Invalidity{"V3", fmt.Sprintf(
					"closing flag detected %d bit(s) early after payload state (sw=%d, sf=%d)",
					F-1-j, s.sw, s.sf)}
			}
		}

		for _, d := range []bitio.Bit{0, 1} {
			ns, false1 := step(s, d)
			if false1 {
				return &Invalidity{"V2", fmt.Sprintf(
					"flag completes inside stuffed payload on data bit %d (sw=%d, sf=%d)",
					d, s.sw, s.sf)}
			}
			if ns.sw == W {
				// Sender stuffs: one more emitted bit.
				var false2 bool
				ns, false2 = step(ns, r.Insert)
				if false2 {
					return &Invalidity{"V2", fmt.Sprintf(
						"flag completes on a stuff bit (sw=%d, sf=%d)", s.sw, s.sf)}
				}
				if ns.sw == W {
					return &Invalidity{"V1", "stuff bit re-completes watch (unreachable if prefix check passed)"}
				}
			}
			if !seen[ns] {
				seen[ns] = true
				queue = append(queue, ns)
			}
		}
	}
	return nil
}

// CheckExhaustive verifies the executable round-trip specification for
// every data string of length 0..maxLen and additionally re-frames the
// encoding inside a continuous stream (idle flags on both sides) to
// check unambiguous deframing. It returns the first counterexample
// found, or ok=true. This is the bounded-exhaustive cross-check of the
// automaton analysis; maxLen at least 2*(len Flag + len Watch) exercises
// every product-automaton transition.
func (r Rule) CheckExhaustive(maxLen int) (counterexample bitio.Bits, ok bool) {
	for n := 0; n <= maxLen; n++ {
		limit := 1 << uint(n)
		for v := 0; v < limit; v++ {
			w := bitio.NewWriter(n)
			for i := n - 1; i >= 0; i-- {
				w.WriteBit(bitio.Bit(v>>uint(i)) & 1)
			}
			d := w.Bits()
			if !r.RoundTrip(d) {
				return d, false
			}
			if n > 0 && !r.deframeOK(d) {
				return d, false
			}
		}
	}
	return bitio.Bits{}, true
}

// deframeOK embeds the encoding of d in a stream with extra idle flags
// and checks Deframe recovers exactly d.
func (r Rule) deframeOK(d bitio.Bits) bool {
	enc, err := r.Encode(d)
	if err != nil {
		return false
	}
	stream := r.Flag.Append(enc).Append(r.Flag)
	frames, errs := r.Deframe(stream)
	if len(frames) != 1 || errs[0] != nil {
		return false
	}
	return frames[0].Equal(d)
}
