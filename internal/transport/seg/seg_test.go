package seg

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSeqComparisons(t *testing.T) {
	cases := []struct {
		a, b Seq
		less bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xFFFFFFFF, 0, true},  // wrap
		{0, 0xFFFFFFFF, false}, // wrap the other way
		{0x7FFFFFFF, 0x80000000, true},
	}
	for _, c := range cases {
		if c.a.Less(c.b) != c.less {
			t.Errorf("%d.Less(%d) = %v", c.a, c.b, !c.less)
		}
	}
	if !Seq(5).Leq(5) || Seq(6).Leq(5) {
		t.Error("Leq wrong")
	}
	if Seq(0xFFFFFFFF).Add(2) != 1 {
		t.Error("Add does not wrap")
	}
	if Seq(5).Diff(3) != 2 || Seq(3).Diff(5) != -2 {
		t.Error("Diff wrong")
	}
	if Max(Seq(0xFFFFFFFF), Seq(1)) != 1 || Min(Seq(0xFFFFFFFF), Seq(1)) != 0xFFFFFFFF {
		t.Error("Max/Min not wrap-aware")
	}
}

func TestSeqQuickAntisymmetry(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Seq(a), Seq(b)
		if a == b {
			return !x.Less(y) && !y.Less(x)
		}
		// In mod arithmetic exactly one of the two holds unless they
		// are 2^31 apart.
		if a-b == 1<<31 {
			return true
		}
		return x.Less(y) != y.Less(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSendBufferWriteSliceRelease(t *testing.T) {
	b := NewSendBuffer(10)
	if n := b.Write([]byte("hello world!")); n != 10 {
		t.Fatalf("Write accepted %d", n)
	}
	if b.Free() != 0 || b.Len() != 10 {
		t.Error("accounting wrong")
	}
	if got := b.Slice(0, 5); string(got) != "hello" {
		t.Errorf("Slice = %q", got)
	}
	if got := b.Slice(6, 100); string(got) != "worl" {
		t.Errorf("clipped Slice = %q", got)
	}
	b.Release(6)
	if b.Base() != 6 || b.Len() != 4 {
		t.Errorf("after release: base=%d len=%d", b.Base(), b.Len())
	}
	if got := b.Slice(6, 4); string(got) != "worl" {
		t.Errorf("post-release Slice = %q", got)
	}
	if n := b.Write([]byte("xyz")); n != 3 {
		t.Errorf("refill accepted %d", n)
	}
	if b.End() != 13 {
		t.Errorf("End = %d", b.End())
	}
	// Releasing past the end clips.
	b.Release(100)
	if b.Len() != 0 {
		t.Error("over-release did not drain")
	}
}

func TestSendBufferSliceBeforeBasePanics(t *testing.T) {
	b := NewSendBuffer(10)
	b.Write([]byte("abcdef"))
	b.Release(3)
	defer func() {
		if recover() == nil {
			t.Error("Slice before base did not panic")
		}
	}()
	b.Slice(0, 2)
}

func TestReassemblyInOrder(t *testing.T) {
	r := NewReassembly(100)
	got := r.Insert(0, []byte("abc"))
	if string(got) != "abc" || r.Next() != 3 {
		t.Fatalf("got %q next %d", got, r.Next())
	}
	got = r.Insert(3, []byte("def"))
	if string(got) != "def" || r.Next() != 6 {
		t.Fatalf("got %q", got)
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	r := NewReassembly(100)
	if got := r.Insert(3, []byte("def")); len(got) != 0 {
		t.Fatalf("premature delivery %q", got)
	}
	if r.Buffered() != 3 {
		t.Errorf("Buffered = %d", r.Buffered())
	}
	if holes := r.Holes(); len(holes) != 1 || holes[0] != 3 {
		t.Errorf("Holes = %v", holes)
	}
	got := r.Insert(0, []byte("abc"))
	if string(got) != "abcdef" {
		t.Fatalf("got %q", got)
	}
	if r.Buffered() != 0 {
		t.Error("buffer not drained")
	}
}

func TestReassemblyDuplicatesAndOverlap(t *testing.T) {
	r := NewReassembly(100)
	r.Insert(0, []byte("abc"))
	// Exact duplicate of consumed data.
	if got := r.Insert(0, []byte("abc")); len(got) != 0 {
		t.Errorf("duplicate delivered %q", got)
	}
	// Partial overlap with consumed prefix.
	got := r.Insert(1, []byte("bcDE"))
	if string(got) != "DE" {
		t.Errorf("overlap trim = %q", got)
	}
	// Duplicate out-of-order segment buffered once.
	r.Insert(10, []byte("xy"))
	r.Insert(10, []byte("xy"))
	if r.Buffered() != 2 {
		t.Errorf("Buffered = %d", r.Buffered())
	}
}

func TestReassemblyRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		stream := make([]byte, 500+rng.Intn(500))
		rng.Read(stream)
		// Chop into segments, shuffle, duplicate some.
		type piece struct {
			off  uint64
			data []byte
		}
		var pieces []piece
		for at := 0; at < len(stream); {
			n := 1 + rng.Intn(60)
			if at+n > len(stream) {
				n = len(stream) - at
			}
			pieces = append(pieces, piece{uint64(at), stream[at : at+n]})
			at += n
		}
		// Duplicates.
		for i := 0; i < len(pieces)/3; i++ {
			pieces = append(pieces, pieces[rng.Intn(len(pieces))])
		}
		rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
		r := NewReassembly(1 << 20)
		// Nothing has arrived out of order yet, so the segment map does
		// not exist: Holes, and the pop behind an empty Insert, must read
		// that as an empty one.
		if h, popped := r.Holes(), r.Insert(0, nil); len(h) != 0 || popped != nil || r.Buffered() != 0 || r.Next() != 0 {
			t.Fatalf("trial %d: fresh buffer: holes %v, popped %q, buffered %d, next %d", trial, h, popped, r.Buffered(), r.Next())
		}
		var out []byte
		for _, p := range pieces {
			out = append(out, r.Insert(p.off, p.data)...)
		}
		if !bytes.Equal(out, stream) {
			t.Fatalf("trial %d: reassembly mismatch (%d vs %d bytes)", trial, len(out), len(stream))
		}
	}
}

func TestReassemblyFreeWindow(t *testing.T) {
	r := NewReassembly(10)
	r.Insert(5, []byte("abcde"))
	if r.Free() != 5 {
		t.Errorf("Free = %d", r.Free())
	}
}

// TestReadBufferLendsAndReuses walks the borrow rule: the slice ReadAll
// returns survives appends, an empty ReadAll lends and swaps nothing,
// and the array comes back into use two swaps later, so a reader that
// drains per arrival allocates nothing once both arrays exist.
func TestReadBufferLendsAndReuses(t *testing.T) {
	var b ReadBuffer
	if got := b.ReadAll(); got != nil || b.Retained() != 0 {
		t.Fatalf("zero buffer: ReadAll = %q, retained %d", got, b.Retained())
	}
	b.Append([]byte("first"))
	first := b.ReadAll()
	if got := b.ReadAll(); got != nil {
		t.Fatalf("second ReadAll with nothing between = %q, want nil", got)
	}
	b.Append([]byte("second, longer"))
	if string(first) != "first" || b.Len() != 14 {
		t.Fatalf("after an append the lent slice reads %q, %d unread", first, b.Len())
	}
	second := b.ReadAll()
	b.Append([]byte("3rd"))
	if string(second) != "second, longer" {
		t.Fatalf("after the next append the lent slice reads %q", second)
	}
	if third := b.ReadAll(); string(third) != "3rd" || &third[0] != &first[0] {
		t.Errorf("third ReadAll = %q, in the first array: %v", third, &third[0] == &first[0])
	}
	p := make([]byte, 1400)
	cycle := func() {
		b.Append(p)
		if got := b.ReadAll(); len(got) != len(p) {
			t.Fatalf("ReadAll returned %d bytes", len(got))
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("Append+ReadAll: %v allocs per cycle, want 0", allocs)
	}
}

// TestReadBufferShortReads mixes Read with a small p and ReadAll over
// appends of every phase: the stream comes out in order, a drained
// buffer starts over at its front, and a reader that never quite
// catches up does not grow the array past what it leaves unread.
func TestReadBufferShortReads(t *testing.T) {
	var b ReadBuffer
	stream := make([]byte, 0, 300_000)
	for i := 0; i < cap(stream); i++ {
		stream = append(stream, streamByte(uint64(i)))
	}
	var got []byte
	p := make([]byte, 700)
	for at, step := 0, 0; at < len(stream); step++ {
		n := min(1+step*37%1400, len(stream)-at)
		b.Append(stream[at : at+n])
		at += n
		if step%50 == 49 {
			got = append(got, b.ReadAll()...)
		}
		for b.Len() > 1000 { // leave a residue behind: off is rarely 0 at an append
			got = append(got, p[:b.Read(p)]...)
		}
		// At most 2,400 bytes are ever unread; the array stops doubling
		// once it is twice that.
		if c := cap(b.buf); c > 16<<10 {
			t.Fatalf("step %d: %d unread bytes in an array of %d", step, b.Len(), c)
		}
	}
	for b.Len() > 0 {
		got = append(got, p[:b.Read(p)]...)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("stream read back differs (%d of %d bytes)", len(got), len(stream))
	}
	if b.off != 0 || len(b.buf) != 0 {
		t.Errorf("drained buffer: off %d, len %d, want the front", b.off, len(b.buf))
	}
}

// TestReadBufferFinishRetainsNothing: once nothing more is expected the
// buffer keeps only what is unread, and nothing after that is read —
// by Read or by ReadAll, which gives the last array away.
func TestReadBufferFinishRetainsNothing(t *testing.T) {
	for _, drain := range []string{"none", "Read", "ReadAll"} {
		var b ReadBuffer
		b.Append([]byte("lent"))
		lent := b.ReadAll()
		b.Append([]byte("unread"))
		if drain == "none" {
			b.ReadAll()
		}
		b.Finish()
		if b.spare != nil || string(lent) != "lent" {
			t.Errorf("%s: after Finish spare = %v, lent slice reads %q", drain, b.spare != nil, lent)
		}
		switch drain {
		case "Read":
			p := make([]byte, 16)
			if n := b.Read(p); string(p[:n]) != "unread" {
				t.Errorf("Read after Finish = %q", p[:n])
			}
		case "ReadAll":
			if got := b.ReadAll(); string(got) != "unread" {
				t.Errorf("ReadAll after Finish = %q", got)
			}
		}
		if b.Retained() != 0 || b.Len() != 0 {
			t.Errorf("%s: finished and drained buffer retains %d bytes, %d unread", drain, b.Retained(), b.Len())
		}
	}
}

func TestRTTEstimator(t *testing.T) {
	e := NewRTTEstimator(time.Second, 100*time.Millisecond, 60*time.Second)
	if e.RTO() != time.Second {
		t.Error("initial RTO wrong")
	}
	e.Sample(200 * time.Millisecond)
	// First sample: srtt=rtt, rttvar=rtt/2 → rto = 200 + 400 = 600ms.
	if e.RTO() != 600*time.Millisecond {
		t.Errorf("RTO after first sample = %v", e.RTO())
	}
	if e.SRTT() != 200*time.Millisecond {
		t.Errorf("SRTT = %v", e.SRTT())
	}
	// Stable samples shrink variance toward the minimum.
	for i := 0; i < 50; i++ {
		e.Sample(200 * time.Millisecond)
	}
	if e.RTO() > 300*time.Millisecond {
		t.Errorf("RTO did not converge: %v", e.RTO())
	}
	// Backoff doubles, clamped.
	r0 := e.RTO()
	e.Backoff()
	if e.RTO() != 2*r0 && e.RTO() != 60*time.Second {
		t.Errorf("Backoff: %v → %v", r0, e.RTO())
	}
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if e.RTO() > 60*time.Second {
		t.Error("RTO exceeded max")
	}
	// Minimum clamp.
	e2 := NewRTTEstimator(time.Second, 100*time.Millisecond, time.Minute)
	for i := 0; i < 50; i++ {
		e2.Sample(time.Millisecond)
	}
	if e2.RTO() < 100*time.Millisecond {
		t.Error("RTO below min")
	}
	// Zero/negative samples ignored.
	before := e2.RTO()
	e2.Sample(0)
	if e2.RTO() != before {
		t.Error("zero sample changed state")
	}
}

func TestRangeSetBasics(t *testing.T) {
	var s RangeSet
	if !s.Add(10, 20) {
		t.Error("fresh range not new")
	}
	if s.Add(10, 20) {
		t.Error("exact duplicate reported new")
	}
	if !s.Add(15, 25) {
		t.Error("extension not new")
	}
	if got := s.Ranges(); len(got) != 1 || got[0] != [2]uint64{10, 25} {
		t.Errorf("ranges = %v", got)
	}
	if !s.Add(0, 5) {
		t.Error("disjoint prefix not new")
	}
	if s.Len() != 20 {
		t.Errorf("Len = %d", s.Len())
	}
	// Adjacent ranges coalesce.
	s.Add(5, 10)
	if got := s.Ranges(); len(got) != 1 || got[0] != [2]uint64{0, 25} {
		t.Errorf("after adjacency: %v", got)
	}
}

func TestRangeSetContainsAndCum(t *testing.T) {
	var s RangeSet
	s.Add(0, 10)
	s.Add(20, 30)
	if !s.Contains(0, 10) || !s.Contains(3, 7) || s.Contains(5, 15) || s.Contains(10, 20) {
		t.Error("Contains wrong")
	}
	if s.ContiguousFrom(0) != 10 {
		t.Errorf("ContiguousFrom(0) = %d", s.ContiguousFrom(0))
	}
	if s.ContiguousFrom(10) != 10 {
		t.Errorf("ContiguousFrom(10) = %d", s.ContiguousFrom(10))
	}
	blocks := s.BlocksAbove(10, 4)
	if len(blocks) != 1 || blocks[0] != [2]uint64{20, 30} {
		t.Errorf("BlocksAbove = %v", blocks)
	}
	if got := s.BlocksAbove(10, 0); len(got) != 0 {
		t.Errorf("max=0 returned %v", got)
	}
	if s.Contains(5, 5) != true {
		t.Error("empty range should be contained")
	}
}

func TestRangeSetEmptyAdd(t *testing.T) {
	var s RangeSet
	if s.Add(5, 5) || s.Add(7, 3) {
		t.Error("degenerate range reported new")
	}
}

func TestRangeSetRandomizedAgainstBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		var s RangeSet
		bitmap := make([]bool, 300)
		for op := 0; op < 100; op++ {
			from := uint64(rng.Intn(280))
			to := from + uint64(1+rng.Intn(20))
			wasNew := false
			for i := from; i < to; i++ {
				if !bitmap[i] {
					wasNew = true
					bitmap[i] = true
				}
			}
			if got := s.Add(from, to); got != wasNew {
				t.Fatalf("Add(%d,%d) new=%v, oracle %v", from, to, got, wasNew)
			}
		}
		// Compare coverage.
		var n uint64
		for _, b := range bitmap {
			if b {
				n++
			}
		}
		if s.Len() != n {
			t.Fatalf("Len %d vs oracle %d", s.Len(), n)
		}
		// Contains agrees on random probes.
		for probe := 0; probe < 50; probe++ {
			from := uint64(rng.Intn(280))
			to := from + uint64(rng.Intn(20))
			want := true
			for i := from; i < to; i++ {
				if !bitmap[i] {
					want = false
					break
				}
			}
			if s.Contains(from, to) != want {
				t.Fatalf("Contains(%d,%d) != %v", from, to, want)
			}
		}
	}
}

func BenchmarkReassemblyInOrder(b *testing.B) {
	data := make([]byte, 1400)
	b.ReportAllocs()
	r := NewReassembly(1 << 20)
	off := uint64(0)
	for i := 0; i < b.N; i++ {
		r.Insert(off, data)
		off += 1400
	}
}

func BenchmarkRangeSetAdd(b *testing.B) {
	var s RangeSet
	for i := 0; i < b.N; i++ {
		off := uint64(i%1000) * 100
		s.Add(off, off+50)
		if i%1000 == 999 {
			s = RangeSet{}
		}
	}
}
