package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"", "0", "1", "01111110", "00000010", "1010101010101"}
	for _, c := range cases {
		b, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if got := b.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
		if b.Len() != len(c) {
			t.Errorf("Parse(%q).Len() = %d, want %d", c, b.Len(), len(c))
		}
	}
}

func TestParseSeparators(t *testing.T) {
	b, err := Parse("0111_1110 01")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != "0111111001" {
		t.Errorf("got %q", b.String())
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("01x0"); err == nil {
		t.Error("Parse accepted invalid rune")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on invalid input")
		}
	}()
	MustParse("2")
}

func TestAt(t *testing.T) {
	b := MustParse("10110")
	want := []Bit{1, 0, 1, 1, 0}
	for i, w := range want {
		if b.At(i) != w {
			t.Errorf("At(%d) = %d, want %d", i, b.At(i), w)
		}
	}
}

func TestAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	MustParse("1").At(1)
}

func TestAppendValueSemantics(t *testing.T) {
	// Appending different bits to the same prefix must not alias.
	base := MustParse("101")
	a := base.AppendBit(0)
	b := base.AppendBit(1)
	if a.String() != "1010" || b.String() != "1011" {
		t.Errorf("aliasing: a=%q b=%q", a, b)
	}
	if base.String() != "101" {
		t.Errorf("base mutated: %q", base)
	}
}

func TestAppendBits(t *testing.T) {
	a := MustParse("101")
	b := MustParse("0011")
	if got := a.Append(b).String(); got != "1010011" {
		t.Errorf("Append = %q", got)
	}
	if got := a.Append(Bits{}).String(); got != "101" {
		t.Errorf("Append empty = %q", got)
	}
}

func TestSlice(t *testing.T) {
	b := MustParse("011111100")
	if got := b.Slice(1, 7).String(); got != "111111" {
		t.Errorf("Slice(1,7) = %q", got)
	}
	if got := b.Slice(0, 0).String(); got != "" {
		t.Errorf("Slice(0,0) = %q", got)
	}
	if got := b.Slice(0, b.Len()).String(); got != b.String() {
		t.Errorf("full slice = %q", got)
	}
}

func TestEqual(t *testing.T) {
	if !MustParse("0101").Equal(MustParse("0101")) {
		t.Error("equal strings reported unequal")
	}
	if MustParse("0101").Equal(MustParse("01010")) {
		t.Error("different lengths reported equal")
	}
	if MustParse("0101").Equal(MustParse("0111")) {
		t.Error("different bits reported equal")
	}
}

func TestPrefixSuffix(t *testing.T) {
	b := MustParse("0111110")
	if !b.HasPrefix(MustParse("011")) || b.HasPrefix(MustParse("111")) {
		t.Error("HasPrefix wrong")
	}
	if !b.HasSuffix(MustParse("110")) || b.HasSuffix(MustParse("111")) {
		t.Error("HasSuffix wrong")
	}
	if !b.HasPrefix(Bits{}) || !b.HasSuffix(Bits{}) {
		t.Error("empty pattern should always be prefix and suffix")
	}
	if b.HasPrefix(MustParse("01111101")) {
		t.Error("longer pattern cannot be a prefix")
	}
}

func TestIndexCount(t *testing.T) {
	s := MustParse("0110110110")
	p := MustParse("011")
	if got := s.Index(p, 0); got != 0 {
		t.Errorf("Index = %d", got)
	}
	if got := s.Index(p, 1); got != 3 {
		t.Errorf("Index from 1 = %d", got)
	}
	if got := s.Index(MustParse("111"), 0); got != -1 {
		t.Errorf("Index missing = %d", got)
	}
	// Stepping past each hit counts overlapping occurrences.
	count := 0
	for at := MustParse("11111").Index(MustParse("11"), 0); at >= 0; at = MustParse("11111").Index(MustParse("11"), at+1) {
		count++
	}
	if count != 4 {
		t.Errorf("overlapping count = %d", count)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	in := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF}
	b := FromBytes(in)
	out, n := b.Bytes()
	if n != len(in)*8 {
		t.Fatalf("bit length %d", n)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("byte %d: %x != %x", i, out[i], in[i])
		}
	}
	exact, err := b.ToBytesExact()
	if err != nil || len(exact) != len(in) {
		t.Fatalf("ToBytesExact: %v", err)
	}
}

func TestToBytesExactError(t *testing.T) {
	if _, err := MustParse("0101").ToBytesExact(); err == nil {
		t.Error("ToBytesExact accepted non-octet length")
	}
}

func TestBytesTailMasked(t *testing.T) {
	// Two equal bit strings built differently must have equal byte images.
	a := MustParse("101")
	w := NewWriter(0)
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBit(1)
	ab, _ := a.Bytes()
	bb, _ := w.Bits().Bytes()
	if ab[0] != bb[0] {
		t.Errorf("tail padding differs: %x vs %x", ab[0], bb[0])
	}
}

func TestWriterReader(t *testing.T) {
	w := NewWriter(64)
	_ = w.WriteByte(0xA5)
	_ = w.WriteByte(0x3C)
	w.WriteBit(1)
	w.WriteBits(MustParse("001"))
	got := w.Bits()
	if got.Len() != 20 {
		t.Fatalf("Len = %d", got.Len())
	}
	// Read back: whole bytes MSB first, then the tail bit by bit.
	data, n := got.Bytes()
	if n != 20 || data[0] != 0xA5 || data[1] != 0x3C {
		t.Fatalf("Bytes = %x, %d", data, n)
	}
	if tail := got.Slice(16, 20).String(); tail != "1001" {
		t.Fatalf("tail = %s", tail)
	}
}

func TestWriterSnapshotIndependence(t *testing.T) {
	w := NewWriter(8)
	w.WriteBit(1)
	snap := w.Bits()
	w.WriteBit(1)
	if snap.String() != "1" {
		t.Errorf("snapshot mutated by later writes: %q", snap)
	}
}

// Property: Bytes/FromBytes round-trips arbitrary byte slices.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(in []byte) bool {
		b := FromBytes(in)
		out, n := b.Bytes()
		if n != len(in)*8 {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Append is associative and length-additive.
func TestQuickAppendAssociative(t *testing.T) {
	gen := func(r *rand.Rand) Bits {
		n := r.Intn(24)
		w := NewWriter(n)
		for i := 0; i < n; i++ {
			w.WriteBit(Bit(r.Intn(2)))
		}
		return w.Bits()
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		l := a.Append(b).Append(c)
		rr := a.Append(b.Append(c))
		if !l.Equal(rr) {
			t.Fatalf("associativity failed: %q %q %q", a, b, c)
		}
		if l.Len() != a.Len()+b.Len()+c.Len() {
			t.Fatalf("length not additive")
		}
	}
}

// Property: Index agrees with a naive quadratic search.
func TestQuickIndexAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randBits := func(n int) Bits {
		w := NewWriter(n)
		for i := 0; i < n; i++ {
			w.WriteBit(Bit(r.Intn(2)))
		}
		return w.Bits()
	}
	for i := 0; i < 500; i++ {
		s := randBits(r.Intn(40))
		p := randBits(1 + r.Intn(5))
		got := s.Index(p, 0)
		want := -1
		for at := 0; at+p.Len() <= s.Len(); at++ {
			if s.Slice(at, at+p.Len()).Equal(p) {
				want = at
				break
			}
		}
		if got != want {
			t.Fatalf("Index(%q in %q) = %d, want %d", p, s, got, want)
		}
	}
}

func TestMatcherFindsAllOccurrences(t *testing.T) {
	s := MustParse("0111111001111110")
	flag := MustParse("01111110")
	m := NewMatcher(flag)
	hits := feedAll(m, s)
	if len(hits) != 2 || hits[0] != 7 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestMatcherOverlapping(t *testing.T) {
	m := NewMatcher(MustParse("11"))
	hits := feedAll(m, MustParse("1111"))
	if len(hits) != 3 {
		t.Fatalf("overlapping hits = %v", hits)
	}
}

func TestMatcherAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	randBits := func(n int) Bits {
		w := NewWriter(n)
		for i := 0; i < n; i++ {
			w.WriteBit(Bit(r.Intn(2)))
		}
		return w.Bits()
	}
	for trial := 0; trial < 300; trial++ {
		s := randBits(r.Intn(60))
		p := randBits(1 + r.Intn(6))
		m := NewMatcher(p)
		got := feedAll(m, s)
		var want []int
		for at := 0; at+p.Len() <= s.Len(); at++ {
			if s.Slice(at, at+p.Len()).Equal(p) {
				want = append(want, at+p.Len()-1)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("pattern %q in %q: got %v want %v", p, s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pattern %q in %q: got %v want %v", p, s, got, want)
			}
		}
	}
}

func TestMatcherNextPure(t *testing.T) {
	m := NewMatcher(MustParse("1011"))
	_ = m.Next(2, 1)
	if hits := feedAll(m, MustParse("1011")); len(hits) != 1 || hits[0] != 3 {
		t.Errorf("Next mutated matcher state: hits = %v", hits)
	}
}

func TestMatcherEmptyPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatcher on empty pattern did not panic")
		}
	}()
	NewMatcher(Bits{})
}

func TestMatcherReset(t *testing.T) {
	m := NewMatcher(MustParse("111"))
	m.Feed(1)
	m.Feed(1)
	m.Reset()
	if m.Feed(1) {
		t.Error("Reset did not zero state")
	}
}

func BenchmarkWriterWriteBytes(b *testing.B) {
	buf := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(len(buf) * 8)
		for _, c := range buf {
			_ = w.WriteByte(c)
		}
	}
}

func BenchmarkMatcherFeed(b *testing.B) {
	m := NewMatcher(MustParse("01111110"))
	s := FromBytes(make([]byte, 1500))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Reset()
		for j := 0; j < s.Len(); j++ {
			m.Feed(s.At(j))
		}
	}
}

// feedAll feeds every bit of s and returns the positions (bit index of
// the last bit of each occurrence) at which the pattern matched.
func feedAll(m *Matcher, s Bits) []int {
	var hits []int
	for i := 0; i < s.Len(); i++ {
		if m.Feed(s.At(i)) {
			hits = append(hits, i)
		}
	}
	return hits
}
