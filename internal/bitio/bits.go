// Package bitio provides bit-granularity buffers and utilities.
//
// The data link sublayers in this repository (encoding, framing, bit
// stuffing) operate on sequences of bits rather than bytes: a stuffed
// frame is generally not a whole number of octets. Bits is a compact,
// value-semantics bit string (MSB-first within each byte) that supports
// append, slicing, pattern search and conversion to and from bytes.
package bitio

import (
	"fmt"
	"strings"
)

// Bit is a single binary digit, 0 or 1.
type Bit uint8

// Bits is an immutable-by-convention bit string. The zero value is the
// empty bit string, ready to use. Bits are stored MSB-first: bit i of the
// string lives in data[i/8] at bit position 7-(i%8).
type Bits struct {
	data []byte
	n    int
}

// New returns an empty Bits with capacity for at least n bits.
func New(n int) Bits {
	return Bits{data: make([]byte, 0, (n+7)/8)}
}

// FromBytes returns a Bits viewing every bit of b. The slice is copied.
func FromBytes(b []byte) Bits {
	d := make([]byte, len(b))
	copy(d, b)
	return Bits{data: d, n: len(b) * 8}
}

// Parse converts a string of '0' and '1' runes into a Bits. Any other
// rune is an error. Spaces and underscores are permitted as separators.
func Parse(s string) (Bits, error) {
	var out Bits
	for _, r := range s {
		switch r {
		case '0':
			out = out.AppendBit(0)
		case '1':
			out = out.AppendBit(1)
		case ' ', '_':
		default:
			return Bits{}, fmt.Errorf("bitio: invalid rune %q in bit string", r)
		}
	}
	return out, nil
}

// MustParse is Parse that panics on malformed input. It is intended for
// constants in tests and table literals.
func MustParse(s string) Bits {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of bits in the string.
func (s Bits) Len() int { return s.n }

// At returns bit i. It panics if i is out of range.
func (s Bits) At(i int) Bit {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitio: index %d out of range [0,%d)", i, s.n))
	}
	return Bit(s.data[i/8]>>(7-uint(i%8))) & 1
}

// AppendBit returns a new Bits with b appended. The receiver is treated
// as immutable: if the underlying array has spare capacity from a prior
// longer use, the byte is re-masked so sharing is safe.
func (s Bits) AppendBit(b Bit) Bits {
	idx, off := s.n/8, uint(7-s.n%8)
	var d []byte
	if idx < len(s.data) {
		// Appending into a partially used final byte: copy to keep
		// value semantics when two strings share a backing array.
		d = make([]byte, len(s.data), cap(s.data))
		copy(d, s.data)
	} else {
		d = append(s.data, 0)
	}
	if b != 0 {
		d[idx] |= 1 << off
	} else {
		d[idx] &^= 1 << off
	}
	return Bits{data: d, n: s.n + 1}
}

// Append returns the concatenation s || t.
func (s Bits) Append(t Bits) Bits {
	out := s
	for i := 0; i < t.n; i++ {
		out = out.AppendBit(t.At(i))
	}
	return out
}

// Slice returns the substring [from, to). It panics on out-of-range
// bounds. The result is a fresh copy.
func (s Bits) Slice(from, to int) Bits {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitio: slice [%d:%d) out of range [0,%d]", from, to, s.n))
	}
	out := New(to - from)
	for i := from; i < to; i++ {
		out = out.AppendBit(s.At(i))
	}
	return out
}

// Equal reports whether s and t contain the same bits.
func (s Bits) Equal(t Bits) bool {
	if s.n != t.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.At(i) != t.At(i) {
			return false
		}
	}
	return true
}

// HasPrefix reports whether s begins with p.
func (s Bits) HasPrefix(p Bits) bool {
	if p.n > s.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if s.At(i) != p.At(i) {
			return false
		}
	}
	return true
}

// HasSuffix reports whether s ends with p.
func (s Bits) HasSuffix(p Bits) bool {
	if p.n > s.n {
		return false
	}
	off := s.n - p.n
	for i := 0; i < p.n; i++ {
		if s.At(off+i) != p.At(i) {
			return false
		}
	}
	return true
}

// Index returns the position of the first occurrence of pattern p in s
// at or after position from, or -1 if p does not occur. An empty pattern
// matches at from.
func (s Bits) Index(p Bits, from int) int {
	if p.n == 0 {
		if from <= s.n {
			return from
		}
		return -1
	}
	for i := from; i+p.n <= s.n; i++ {
		match := true
		for j := 0; j < p.n; j++ {
			if s.At(i+j) != p.At(j) {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// Bytes returns the bit string packed MSB-first into bytes, zero-padded
// in the final byte, along with the exact bit length.
func (s Bits) Bytes() ([]byte, int) {
	out := make([]byte, (s.n+7)/8)
	copy(out, s.data[:len(out)])
	// Mask tail padding so equal bit strings have equal byte images.
	if rem := s.n % 8; rem != 0 && len(out) > 0 {
		out[len(out)-1] &= byte(0xFF << (8 - uint(rem)))
	}
	return out, s.n
}

// ToBytesExact converts to bytes and errors unless the length is a whole
// number of octets.
func (s Bits) ToBytesExact() ([]byte, error) {
	if s.n%8 != 0 {
		return nil, fmt.Errorf("bitio: length %d bits is not a whole number of bytes", s.n)
	}
	b, _ := s.Bytes()
	return b, nil
}

// String renders the bit string as '0'/'1' runes.
func (s Bits) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.At(i) == 0 {
			b.WriteByte('0')
		} else {
			b.WriteByte('1')
		}
	}
	return b.String()
}

// Writer incrementally builds a Bits. Unlike Bits.AppendBit, a Writer
// mutates its own buffer and never copies, so building an n-bit string
// is O(n).
type Writer struct {
	data []byte
	n    int
}

// NewWriter returns a Writer preallocating space for n bits.
func NewWriter(n int) *Writer {
	return &Writer{data: make([]byte, 0, (n+7)/8)}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b Bit) {
	if w.n%8 == 0 {
		w.data = append(w.data, 0)
	}
	if b != 0 {
		w.data[w.n/8] |= 1 << uint(7-w.n%8)
	}
	w.n++
}

// WriteBits appends every bit of s.
func (w *Writer) WriteBits(s Bits) {
	for i := 0; i < s.Len(); i++ {
		w.WriteBit(s.At(i))
	}
}

// WriteByte appends the 8 bits of b, MSB first. It always returns nil;
// the error result satisfies io.ByteWriter.
func (w *Writer) WriteByte(b byte) error {
	for i := 7; i >= 0; i-- {
		w.WriteBit(Bit(b>>uint(i)) & 1)
	}
	return nil
}

// Reset empties the writer while keeping its buffer, so one Writer can
// encode a stream of frames without reallocating per frame.
func (w *Writer) Reset() {
	w.data = w.data[:0]
	w.n = 0
}

// Bits returns the accumulated bit string. The Writer may continue to be
// used afterwards; the returned value is a snapshot.
func (w *Writer) Bits() Bits {
	d := make([]byte, len(w.data))
	copy(d, w.data)
	return Bits{data: d, n: w.n}
}
