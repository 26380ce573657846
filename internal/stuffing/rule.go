// Package stuffing implements the bit-stuffing protocol family from §4.1
// of "If Layering is useful, why not Sublayering?" (HotNets '24).
//
// A stuffing protocol is described by a Rule: a frame-delimiting Flag
// pattern, a Watch pattern, and a Stuff bit. The sender, after emitting
// any occurrence of Watch in its output, inserts (stuffs) the Stuff bit;
// the receiver deletes the bit following any occurrence of Watch. The
// flag sublayer, independently, brackets the stuffed payload with Flag.
// HDLC is the instance Flag=01111110, Watch=11111, Stuff=0.
//
// The paper verifies, in Coq, the specification
//
//	Unstuff(RemoveFlags(AddFlags(Stuff(D)))) = D   for all data D,
//
// and enumerates a library of alternate rules its proof deems valid. Go
// has no proof assistant, so this package substitutes an exact decision
// procedure: Rule.Validate analyses the product of the stuffing
// automaton and the flag-matching automaton and decides — for all data
// strings of any length, not a bounded subset — whether the rule is
// correct (see rule_check.go). internal/verify additionally re-checks
// the round-trip specification by bounded-exhaustive enumeration, and
// the tests in this package cross-validate the two methods against each
// other, mirroring the paper's per-sublayer lemma structure.
package stuffing

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
)

// Rule describes one bit-stuffing protocol.
type Rule struct {
	// Flag delimits frames on the wire. It is owned by the flag
	// sublayer; the stuffing sublayer sees it only through the
	// interface (litmus test T3: correctness of stuffing depends on
	// the flag, and only through the Watch pattern derived from it).
	Flag bitio.Bits
	// Watch is the pattern that triggers stuffing. For every
	// occurrence of Watch in the sender's output, Stuff is inserted.
	Watch bitio.Bits
	// Insert is the stuff bit, inserted after each Watch occurrence.
	Insert bitio.Bit
}

// HDLC is the classic rule: flag 01111110, stuff a 0 after five 1s.
func HDLC() Rule {
	return Rule{
		Flag:   bitio.MustParse("01111110"),
		Watch:  bitio.MustParse("11111"),
		Insert: 0,
	}
}

// LowOverhead is the better rule reported by the paper: flag 00000010,
// stuff a 1 after 0000001. Its overhead under the paper's random model
// is 1 in 128 versus 1 in 32 for HDLC.
func LowOverhead() Rule {
	return Rule{
		Flag:   bitio.MustParse("00000010"),
		Watch:  bitio.MustParse("0000001"),
		Insert: 1,
	}
}

// String renders the rule compactly.
func (r Rule) String() string {
	return fmt.Sprintf("flag=%s watch=%s stuff=%d", r.Flag, r.Watch, r.Insert)
}

// ErrMalformed is returned by Unstuff and Deframe when the input could
// not have been produced by a correct sender: a Watch occurrence is
// followed by the wrong bit, or the stream is truncated mid-escape.
var ErrMalformed = errors.New("stuffing: malformed stuffed stream")

// ErrInfiniteRule is returned by Stuff when the rule would insert stuff
// bits forever (the stuff bit immediately re-completes the Watch
// pattern). Validate rejects such rules.
var ErrInfiniteRule = errors.New("stuffing: rule stuffs forever")

// Stuff applies the stuffing transformation to data: it copies data bit
// by bit, inserting the Stuff bit after every occurrence of Watch in the
// output stream. The automaton tracks the output (stuffed) stream, so a
// stuff bit participates in subsequent matches exactly as a data bit
// does; this is what makes Unstuff its exact inverse.
func (r Rule) Stuff(data bitio.Bits) (bitio.Bits, error) {
	w := bitio.NewWriter(data.Len() + data.Len()/8 + 8)
	if err := r.StuffTo(data, w); err != nil {
		return bitio.Bits{}, err
	}
	return w.Bits(), nil
}

// StuffTo is Stuff streaming into a caller-supplied Writer, producing
// bit-identical output without allocating. Callers reusing one Writer
// across frames Reset it between them.
func (r Rule) StuffTo(data bitio.Bits, w *bitio.Writer) error {
	m := bitio.NewMatcher(r.Watch)
	for i := 0; i < data.Len(); i++ {
		w.WriteBit(data.At(i))
		if m.Feed(data.At(i)) {
			w.WriteBit(r.Insert)
			if m.Feed(r.Insert) {
				return ErrInfiniteRule
			}
		}
	}
	return nil
}

// Unstuff inverts Stuff: it scans the stuffed stream with the same
// automaton and deletes the bit following each Watch occurrence,
// verifying that the deleted bit is the Stuff bit.
func (r Rule) Unstuff(stuffed bitio.Bits) (bitio.Bits, error) {
	w := bitio.NewWriter(stuffed.Len())
	if err := r.UnstuffTo(stuffed, w); err != nil {
		return bitio.Bits{}, err
	}
	return w.Bits(), nil
}

// UnstuffTo is Unstuff streaming into a caller-supplied Writer. On
// error the Writer holds a partial prefix the caller should discard.
func (r Rule) UnstuffTo(stuffed bitio.Bits, w *bitio.Writer) error {
	m := bitio.NewMatcher(r.Watch)
	i := 0
	for i < stuffed.Len() {
		b := stuffed.At(i)
		w.WriteBit(b)
		matched := m.Feed(b)
		i++
		if matched {
			if i >= stuffed.Len() {
				return fmt.Errorf("%w: truncated after watch pattern", ErrMalformed)
			}
			s := stuffed.At(i)
			if s != r.Insert {
				return fmt.Errorf("%w: expected stuff bit %d, found %d at bit %d", ErrMalformed, r.Insert, s, i)
			}
			if m.Feed(s) {
				return ErrInfiniteRule
			}
			i++ // drop the stuffed bit
		}
	}
	return nil
}

// AddFlags brackets an (already stuffed) payload with the opening and
// closing flag. This is the flag sublayer's transmit half.
func (r Rule) AddFlags(stuffed bitio.Bits) bitio.Bits {
	return r.Flag.Append(stuffed).Append(r.Flag)
}

// RemoveFlags strips one opening and one closing flag from a framed bit
// string, verifying both are present. This is the flag sublayer's
// receive half for a pre-delimited frame; use Deframe to locate frames
// inside a continuous bit stream.
func (r Rule) RemoveFlags(framed bitio.Bits) (bitio.Bits, error) {
	fl := r.Flag.Len()
	if framed.Len() < 2*fl {
		return bitio.Bits{}, fmt.Errorf("%w: framed string shorter than two flags", ErrMalformed)
	}
	if !framed.HasPrefix(r.Flag) {
		return bitio.Bits{}, fmt.Errorf("%w: missing opening flag", ErrMalformed)
	}
	if !framed.HasSuffix(r.Flag) {
		return bitio.Bits{}, fmt.Errorf("%w: missing closing flag", ErrMalformed)
	}
	return framed.Slice(fl, framed.Len()-fl), nil
}

// Encode is the full sender pipeline: AddFlags(Stuff(data)).
func (r Rule) Encode(data bitio.Bits) (bitio.Bits, error) {
	w := bitio.NewWriter(data.Len() + data.Len()/8 + 8 + 2*r.Flag.Len())
	if err := r.EncodeTo(data, w); err != nil {
		return bitio.Bits{}, err
	}
	return w.Bits(), nil
}

// EncodeTo is Encode streaming into a caller-supplied Writer: opening
// flag, stuffed payload, closing flag, bit-identical to Encode.
func (r Rule) EncodeTo(data bitio.Bits, w *bitio.Writer) error {
	w.WriteBits(r.Flag)
	if err := r.StuffTo(data, w); err != nil {
		return err
	}
	w.WriteBits(r.Flag)
	return nil
}

// Decode is the full receiver pipeline: Unstuff(RemoveFlags(framed)).
func (r Rule) Decode(framed bitio.Bits) (bitio.Bits, error) {
	s, err := r.RemoveFlags(framed)
	if err != nil {
		return bitio.Bits{}, err
	}
	return r.Unstuff(s)
}

// RoundTrip evaluates the paper's main specification for one data
// string: Decode(Encode(D)) == D. It is the executable form of the
// theorem the Coq development proves for all D.
func (r Rule) RoundTrip(data bitio.Bits) bool {
	enc, err := r.Encode(data)
	if err != nil {
		return false
	}
	dec, err := r.Decode(enc)
	if err != nil {
		return false
	}
	return dec.Equal(data)
}

// Deframe scans a continuous bit stream for flag-delimited frames and
// returns the decoded payload of each. A shared flag may close one frame
// and open the next; spans between flags that are empty are treated as
// idle flag fill, not zero-length frames. Frames whose payload fails to
// unstuff are returned as errors in the corresponding slot.
//
// The receiver resets its flag hunt after every detected flag: an
// occurrence of the flag pattern that would span a previously detected
// flag boundary is not a delimiter. This matches HDLC receivers and is
// the semantics under which the paper's rules are correct — without the
// reset, the low-overhead rule's flag (00000010) admits a false flag
// formed from the opening flag's trailing 0 plus leading payload zeros.
// Rule.Validate analyses exactly these semantics.
func (r Rule) Deframe(stream bitio.Bits) (frames []bitio.Bits, errs []error) {
	m := bitio.NewMatcher(r.Flag)
	fl := r.Flag.Len()
	prevEnd := -1 // bit index just past the previous flag, -1 = none yet
	for i := 0; i < stream.Len(); i++ {
		if !m.Feed(stream.At(i)) {
			continue
		}
		m.Reset()
		end := i + 1      // one past this flag
		start := end - fl // first bit of this flag
		if prevEnd >= 0 && start > prevEnd {
			payload := stream.Slice(prevEnd, start)
			dec, err := r.Unstuff(payload)
			if err != nil {
				errs = append(errs, err)
			} else {
				frames = append(frames, dec)
				errs = append(errs, nil)
			}
		}
		prevEnd = end
	}
	return frames, errs
}
