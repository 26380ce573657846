package seg

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSendBuffer is the copy-down SendBuffer this package had before
// Release became a head advance: the survivors slide to the front of
// one slice on every Release. It is the reference model the real
// buffer is compared against, operation by operation.
type refSendBuffer struct {
	data  []byte
	base  uint64
	limit int
}

func (b *refSendBuffer) Write(p []byte) int {
	room := b.limit - len(b.data)
	if room <= 0 {
		return 0
	}
	if room > len(p) {
		room = len(p)
	}
	b.data = append(b.data, p[:room]...)
	return room
}

func (b *refSendBuffer) View(off uint64, n int) []byte {
	if off < b.base {
		panic("seg: SendBuffer.View before base (already released)")
	}
	start := int(off - b.base)
	if start >= len(b.data) {
		return nil
	}
	end := start + n
	if end > len(b.data) {
		end = len(b.data)
	}
	return b.data[start:end:end]
}

func (b *refSendBuffer) Release(upTo uint64) {
	if upTo <= b.base {
		return
	}
	n := upTo - b.base
	if n > uint64(len(b.data)) {
		n = uint64(len(b.data))
	}
	m := copy(b.data, b.data[n:])
	b.data = b.data[:m]
	b.base += n
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// sendBufferModelLimits are small enough that a few hundred operations
// cross the growth steps and the compaction at 2 × limit many times.
var sendBufferModelLimits = []int{1, 7, 64, 500, 4096}

// checkSendBufferOps interprets ops as a stream of Write, Release, View
// and Slice calls — three bytes each, an operation and a 16-bit
// argument — applied to a SendBuffer and to the reference model, and
// fails on the first observable difference. ops[0] picks the limit.
func checkSendBufferOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	limit := sendBufferModelLimits[int(ops[0])%len(sendBufferModelLimits)]
	b := NewSendBuffer(limit)
	ref := &refSendBuffer{limit: limit}
	var written uint64 // stream offset of the next byte offered
	for i := 1; i+2 < len(ops); i += 3 {
		arg := int(ops[i+1])<<8 | int(ops[i+2])
		switch ops[i] % 4 {
		case 0: // write up to 1.5 × limit bytes whose values depend on their offset
			p := make([]byte, arg%(limit+limit/2+2))
			for j := range p {
				p[j] = byte((written + uint64(j)) * 131 >> 3)
			}
			n, want := b.Write(p), ref.Write(p)
			if n != want {
				t.Fatalf("op %d: Write(%d bytes) = %d, model %d", i, len(p), n, want)
			}
			written += uint64(n)
		case 1: // release relative to base: a no-op, a partial one, or past End (clamps)
			upTo := ref.base + uint64(arg%(2*limit+2))
			if arg%7 == 0 {
				upTo = ref.base - min(ref.base, 3) // at or below base: nothing happens
			}
			b.Release(upTo)
			ref.Release(upTo)
		default: // read at, inside, at the end of and past the unreleased bytes
			off := ref.base + uint64(arg%(len(ref.data)+3))
			n := arg / 3 % (limit + 2)
			got, want := b.View(off, n), ref.View(off, n)
			if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("op %d: View(%d, %d) = %x, model %x", i, off, n, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("op %d: View(%d, %d) has spare capacity %d: an append would write into the buffer", i, off, n, cap(got)-len(got))
			}
			if s := b.Slice(off, n); !bytes.Equal(s, want) {
				t.Fatalf("op %d: Slice(%d, %d) = %x, model %x", i, off, n, s, want)
			}
			if ref.base > 0 && !panics(func() { b.View(ref.base-1, 1) }) {
				t.Fatalf("op %d: View below base %d did not panic", i, ref.base)
			}
		}
		if b.Base() != ref.base || b.Len() != len(ref.data) || b.End() != ref.base+uint64(len(ref.data)) || b.Free() != limit-len(ref.data) {
			t.Fatalf("op %d: base/len/end/free = %d/%d/%d/%d, model %d/%d/%d/%d", i,
				b.Base(), b.Len(), b.End(), b.Free(), ref.base, len(ref.data), ref.base+uint64(len(ref.data)), limit-len(ref.data))
		}
		if b.Len() > limit {
			t.Fatalf("op %d: %d bytes buffered, limit %d", i, b.Len(), limit)
		}
		if cap(b.data) > 2*limit {
			t.Fatalf("op %d: backing array is %d bytes, more than 2 x limit %d", i, cap(b.data), limit)
		}
	}
}

// TestSendBufferMatchesModel drives random operation streams, every
// limit in turn, through checkSendBufferOps.
func TestSendBufferMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		ops := make([]byte, 1+3*(50+rng.Intn(400)))
		rng.Read(ops)
		ops[0] = byte(trial)
		checkSendBufferOps(t, ops)
	}
}

// FuzzSendBuffer is the same comparison with the operation stream
// chosen by the fuzzer (`make fuzz` gives it five seconds).
func FuzzSendBuffer(f *testing.F) {
	f.Add([]byte{2, 0, 0, 64, 1, 0, 10, 0, 0, 10, 2, 0, 5}) // fill, release 10, refill, read
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 0, 0, 1})             // limit 1
	f.Fuzz(checkSendBufferOps)
}

// TestSendBufferSteadyCycleDoesNotAllocate pins the cost of the ack
// path: with the buffer full, releasing a segment and topping the
// buffer up again allocates nothing, compaction included.
func TestSendBufferSteadyCycleDoesNotAllocate(t *testing.T) {
	const limit = 64 << 10
	b := NewSendBuffer(limit)
	p := make([]byte, 1400)
	for b.Write(p) > 0 {
	}
	allocs := testing.AllocsPerRun(1000, func() { // 1000 × 1400 bytes: over twenty compactions
		b.Release(b.Base() + uint64(len(p)))
		b.Write(p)
	})
	if allocs != 0 {
		t.Errorf("Release+Write on a full buffer: %v allocs per cycle, want 0", allocs)
	}
	if b.Len() != limit {
		t.Errorf("buffer holds %d bytes after the cycles, want %d", b.Len(), limit)
	}
}

// TestSendBufferAllocatesWhatItHolds pins the other end of the memory
// bound: a short flow's buffer is the size of what was written, not of
// the limit.
func TestSendBufferAllocatesWhatItHolds(t *testing.T) {
	b := NewSendBuffer(64 << 10)
	b.Write(make([]byte, 3000))
	if c := cap(b.data); c != 3000 {
		t.Errorf("backing array after one 3000-byte Write = %d bytes", c)
	}
	b.Release(3000)
	b.Write(make([]byte, 1000))
	if c := cap(b.data); c != 3000 {
		t.Errorf("backing array after drain and a 1000-byte Write = %d bytes, want the same 3000", c)
	}
}

// refReassembly is the Reassembly this package had before the held
// segments became an ordered slice with recycled storage: a map from
// offset to a private copy, scanned once per pop for the segment
// covering next and once more for stale ones. Which of two segments
// covering next it pops first depends on map order, so it is a model
// only for streams whose bytes are a function of their offset — then
// every order pastes the same prefix.
type refReassembly struct {
	next     uint64
	segments map[uint64][]byte
	buffered int
	limit    int
}

func (r *refReassembly) Free() int {
	f := r.limit - r.buffered
	if f < 0 {
		return 0
	}
	return f
}

func (r *refReassembly) Insert(off uint64, data []byte) []byte {
	if off == r.next && len(r.segments) == 0 && len(data) > 0 {
		r.next += uint64(len(data))
		return data
	}
	if off < r.next {
		skip := r.next - off
		if skip >= uint64(len(data)) {
			return r.pop()
		}
		data = data[skip:]
		off = r.next
	}
	if len(data) == 0 {
		return r.pop()
	}
	if old, ok := r.segments[off]; !ok || len(old) < len(data) {
		if ok {
			r.buffered -= len(old)
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if r.segments == nil {
			r.segments = make(map[uint64][]byte)
		}
		r.segments[off] = cp
		r.buffered += len(cp)
	}
	return r.pop()
}

func (r *refReassembly) pop() []byte {
	var out []byte
	for {
		var bestOff uint64
		found := false
		for off := range r.segments {
			if off <= r.next && r.next < off+uint64(len(r.segments[off])) {
				bestOff = off
				found = true
				break
			}
		}
		if !found {
			break
		}
		seg := r.segments[bestOff]
		delete(r.segments, bestOff)
		r.buffered -= len(seg)
		skip := r.next - bestOff
		out = append(out, seg[skip:]...)
		r.next += uint64(len(seg)) - skip
	}
	for off, seg := range r.segments {
		if off+uint64(len(seg)) <= r.next {
			delete(r.segments, off)
			r.buffered -= len(seg)
		}
	}
	return out
}

func (r *refReassembly) Holes() []uint64 {
	var out []uint64
	for off := range r.segments {
		out = append(out, off)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// streamByte is the stream the reassembly model tests carry: every
// byte a function of its offset.
func streamByte(off uint64) byte { return byte(off*167 + off>>8) }

// checkReassemblyOps interprets ops as a stream of Insert calls — three
// bytes each: where the segment starts, how long it is, and a detail —
// applied to a Reassembly and to the reference model, and fails on the
// first difference in what Insert returns or in Next, Buffered, Free
// and Holes afterwards. The shapes are the ones a lossy, reordering,
// duplicating path produces: in order, ahead of a hole, exactly where a
// held segment starts (shorter, equal, longer), staggered across held
// segments, wholly or partly below next, empty, and the arrival that
// fills the hole with segments waiting behind it. ops[0] picks the
// limit.
func checkReassemblyOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	limit := []int{64, 1000, 64 << 10}[int(ops[0])%3]
	r := NewReassembly(limit)
	ref := &refReassembly{limit: limit}
	var payload []byte
	for i := 1; i+2 < len(ops); i += 3 {
		n, detail := int(ops[i+1])%48, uint64(ops[i+2])
		var off uint64
		switch holes := ref.Holes(); ops[i] % 8 {
		case 0, 1: // in order, or filling the front of the hole
			off = ref.next
		case 2: // ahead: opens a hole or lands behind one
			off = ref.next + 1 + detail%96
		case 3: // below next, wholly or partly, or an empty segment
			off = ref.next - min(ref.next, detail%64)
			if detail%5 == 0 {
				n = 0
			}
		case 4: // at a held segment's offset: shorter, equal or longer
			if len(holes) > 0 {
				off = holes[int(detail)%len(holes)]
			}
		case 5: // staggered: starts inside a held segment
			if len(holes) > 0 {
				off = holes[int(detail)%len(holes)] + 1 + detail%7
			}
		case 6: // just below a held segment, reaching into or over it
			if len(holes) > 0 {
				h := holes[int(detail)%len(holes)]
				off = h - min(h-ref.next, 1+detail%5)
			}
		case 7: // exactly the first hole
			off = ref.next
			if len(holes) > 0 {
				n = int(holes[0] - ref.next)
			}
		}
		payload = payload[:0]
		for j := 0; j < n; j++ {
			payload = append(payload, streamByte(off+uint64(j)))
		}
		from := ref.next
		got, want := r.Insert(off, payload), ref.Insert(off, payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: Insert(%d, %d bytes) = %x, model %x", i, off, n, got, want)
		}
		for j, b := range got {
			if b != streamByte(from+uint64(j)) {
				t.Fatalf("op %d: Insert(%d, %d bytes): byte %d of the prefix from %d is not the stream's", i, off, n, j, from)
			}
		}
		if r.Next() != ref.next || r.Buffered() != ref.buffered || r.Free() != ref.Free() || !reflect.DeepEqual(r.Holes(), ref.Holes()) {
			t.Fatalf("op %d: after Insert(%d, %d bytes) next/buffered/free/holes = %d/%d/%d/%v, model %d/%d/%d/%v", i, off, n,
				r.Next(), r.Buffered(), r.Free(), r.Holes(), ref.next, ref.buffered, ref.Free(), ref.Holes())
		}
	}
}

// TestReassemblyMatchesModel drives seeded operation streams through
// checkReassemblyOps, after two written-out ones that between them hold
// every case the store, trim and replace rules distinguish.
func TestReassemblyMatchesModel(t *testing.T) {
	for _, ops := range [][]byte{
		// Two segments ahead; at the first one's offset an exact
		// duplicate, a shorter and a longer one; one staggered inside it;
		// the hole filled (the staggered one goes stale); an in-order
		// segment that runs over the second.
		{0, 2, 10, 4, 2, 10, 30, 4, 10, 0, 4, 5, 0, 4, 20, 0, 5, 10, 0, 7, 0, 0, 0, 40, 0},
		// Two holes; a segment from next that swallows the first held
		// one; an in-order one that swallows the second; partly below
		// next; empty; wholly below next.
		{1, 2, 8, 0, 2, 8, 40, 6, 30, 0, 0, 47, 0, 3, 20, 9, 3, 20, 5, 3, 4, 9},
	} {
		checkReassemblyOps(t, ops)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 600; trial++ {
		ops := make([]byte, 1+3*(50+rng.Intn(400)))
		rng.Read(ops)
		ops[0] = byte(trial)
		checkReassemblyOps(t, ops)
	}
}

// FuzzReassembly is the same comparison with the operation stream
// chosen by the fuzzer (`make fuzz` gives it five seconds).
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{0, 2, 10, 4, 2, 10, 30, 4, 10, 0, 5, 10, 0, 7, 0, 0}) // two holes, a duplicate, a staggered overlap, the fill
	f.Add([]byte{1, 0, 5, 0, 3, 5, 3, 3, 0, 5})                        // in order, partly below next, empty
	f.Fuzz(checkReassemblyOps)
}

// TestReassemblyLossCycleDoesNotAllocate pins the cost of a loss: a
// hole opens, a window's worth of segments parks behind it, the
// retransmission fills it and everything is delivered. After the first
// cycle has sized the storage, the cycles allocate nothing.
func TestReassemblyLossCycleDoesNotAllocate(t *testing.T) {
	const mss, parked = 1400, 44
	r := NewReassembly(64 << 10)
	p := make([]byte, mss)
	cycle := func() {
		hole := r.Next()
		for i := uint64(1); i <= parked; i++ {
			if out := r.Insert(hole+i*mss, p); out != nil {
				t.Fatalf("segment %d behind the hole delivered %d bytes", i, len(out))
			}
		}
		if out := r.Insert(hole, p); len(out) != (parked+1)*mss {
			t.Fatalf("filling the hole delivered %d bytes, want %d", len(out), (parked+1)*mss)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("open a hole, park %d segments, fill it: %v allocs per cycle, want 0", parked, allocs)
	}
	if r.Buffered() != 0 || len(r.Holes()) != 0 {
		t.Errorf("after the cycles: %d bytes buffered, holes %v", r.Buffered(), r.Holes())
	}
	r.Release()
	if got := r.Retained(); got != 0 {
		t.Errorf("Retained after Release = %d", got)
	}
}

// refRangeSet is RangeSet with the Add this package had before it
// worked in place: rebuild the slice, sort it, coalesce it. Every
// query method is the real one, reading the ranges the old Add left.
type refRangeSet struct{ RangeSet }

func (s *refRangeSet) Add(from, to uint64) bool {
	if from >= to {
		return false
	}
	newBytes := false
	out := s.ranges[:0:0]
	inserted := false
	cur := [2]uint64{from, to}
	for _, r := range s.ranges {
		switch {
		case r[1] < cur[0]:
			out = append(out, r)
		case cur[1] < r[0]:
			if !inserted {
				out = append(out, cur)
				inserted = true
			}
			out = append(out, r)
		default:
			if cur[0] < r[0] || cur[1] > r[1] {
				newBytes = true
			}
			if r[0] < cur[0] {
				cur[0] = r[0]
			}
			if r[1] > cur[1] {
				cur[1] = r[1]
			}
		}
	}
	if !inserted {
		out = append(out, cur)
	}
	if len(s.ranges) == 0 {
		newBytes = true
	} else if !newBytes {
		covered := false
		for _, r := range s.ranges {
			if r[0] <= from && to <= r[1] {
				covered = true
				break
			}
		}
		newBytes = !covered
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r[0] <= last[1] {
			if r[1] > last[1] {
				last[1] = r[1]
			}
		} else {
			merged = append(merged, r)
		}
	}
	s.ranges = merged
	return newBytes
}

// TestRangeSetAddMatchesModel feeds the same arrivals — mostly in
// order, with holes, duplicates, overlaps, exact adjacency and ranges
// that swallow several others — to RangeSet and the reference, and
// compares Add's result and everything RD reads afterwards.
func TestRangeSetAddMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		var s RangeSet
		var ref refRangeSet
		next := uint64(0) // where in-order data would continue
		for op := 0; op < 300; op++ {
			var from, to uint64
			switch rng.Intn(6) {
			case 0, 1: // in order
				from, to = next, next+uint64(1+rng.Intn(40))
			case 2: // ahead, leaving a hole
				from = next + uint64(1+rng.Intn(60))
				to = from + uint64(1+rng.Intn(40))
			case 3: // somewhere behind: duplicate, overlap or hole fill
				from = uint64(rng.Intn(int(next) + 1))
				to = from + uint64(1+rng.Intn(40))
			case 4: // wide: may swallow several ranges
				from = uint64(rng.Intn(int(next) + 1))
				to = from + uint64(rng.Intn(400))
			case 5: // starting exactly where a range ends or ending where one starts
				if rs := s.Ranges(); len(rs) > 0 {
					r := rs[rng.Intn(len(rs))]
					if rng.Intn(2) == 0 {
						from, to = r[1], r[1]+uint64(rng.Intn(30))
					} else {
						from, to = r[0]-min(r[0], uint64(rng.Intn(30))), r[0]
					}
				}
			}
			if to > next {
				next = to
			}
			if got, want := s.Add(from, to), ref.Add(from, to); got != want {
				t.Fatalf("trial %d op %d: Add(%d, %d) = %v, model %v", trial, op, from, to, got, want)
			}
			if got, want := s.Ranges(), ref.Ranges(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %d: after Add(%d, %d) ranges = %v, model %v", trial, op, from, to, got, want)
			}
			cum := s.ContiguousFrom(0)
			if want := ref.ContiguousFrom(0); cum != want {
				t.Fatalf("trial %d op %d: ContiguousFrom(0) = %d, model %d", trial, op, cum, want)
			}
			if got, want := s.BlocksAbove(cum, 3), ref.BlocksAbove(cum, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %d: BlocksAbove(%d, 3) = %v, model %v", trial, op, cum, got, want)
			}
		}
	}
}

// TestRangeSetInOrderAddDoesNotAllocate pins the receive fast path:
// in-order arrival extends the one range the set holds.
func TestRangeSetInOrderAddDoesNotAllocate(t *testing.T) {
	var s RangeSet
	var off uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(off, off+1400)
		off += 1400
	})
	if allocs != 0 {
		t.Errorf("in-order Add: %v allocs, want 0", allocs)
	}
	if got := s.Ranges(); len(got) != 1 || got[0] != [2]uint64{0, off} {
		t.Errorf("ranges = %v, want one range [0, %d)", got, off)
	}
}
