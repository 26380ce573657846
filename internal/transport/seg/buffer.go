package seg

import (
	"sort"
)

// SendBuffer holds the outgoing byte stream between the application
// and the transport. Bytes are addressed by absolute stream offset
// (byte 0 is the first byte ever written); acknowledged bytes are
// released from the front.
//
// The unreleased bytes are data[head:], always contiguous. Nothing is
// allocated up front: the backing array grows on demand to at most
// 2 × limit, which is the memory bound of a long-lived connection that
// keeps its buffer full.
type SendBuffer struct {
	data  []byte
	head  int    // index in data of the first unreleased byte
	base  uint64 // stream offset of data[head]
	limit int    // capacity in bytes
}

// NewSendBuffer returns a buffer holding at most limit unacknowledged
// bytes.
func NewSendBuffer(limit int) *SendBuffer {
	b := new(SendBuffer)
	b.Init(limit)
	return b
}

// Init readies a buffer held by value inside its owner, empty and with
// room for limit unacknowledged bytes.
func (b *SendBuffer) Init(limit int) {
	if limit <= 0 {
		limit = 64 * 1024
	}
	*b = SendBuffer{limit: limit}
}

// Write appends as much of p as fits and returns the count accepted.
func (b *SendBuffer) Write(p []byte) int {
	room := b.Free()
	if room <= 0 {
		return 0
	}
	if room > len(p) {
		room = len(p)
	}
	if len(b.data)+room > cap(b.data) {
		b.makeRoom(room)
	}
	b.data = append(b.data, p[:room]...)
	return room
}

// makeRoom moves the unreleased bytes to the front of a backing array
// with space for n more behind them. It runs only when the tail has
// reached the end of the array. When the result fills at most half the
// array it is made in place: the tail must then advance by at least as
// many bytes as were just moved before the next call, which keeps the
// cost at or below one byte moved per byte streamed. That is always
// the case at 2 × limit (the unreleased bytes never exceed limit);
// below it a fuller array doubles instead.
func (b *SendBuffer) makeRoom(n int) {
	live := b.data[b.head:]
	need := len(live) + n
	to := b.data[:0]
	if c := cap(b.data); need > c/2 && c < 2*b.limit {
		// The first Write gets exactly what it asks for; after that
		// the array doubles.
		grown := 2 * c
		if grown < need {
			grown = need
		}
		if grown > 2*b.limit {
			grown = 2 * b.limit
		}
		to = make([]byte, 0, grown)
	}
	b.data = append(to, live...)
	b.head = 0
}

// Len returns the bytes currently buffered (unreleased).
func (b *SendBuffer) Len() int { return len(b.data) - b.head }

// End returns the stream offset one past the last buffered byte.
func (b *SendBuffer) End() uint64 { return b.base + uint64(b.Len()) }

// Base returns the stream offset of the first unreleased byte.
func (b *SendBuffer) Base() uint64 { return b.base }

// Slice copies out stream bytes [off, off+n), clipped to what exists.
func (b *SendBuffer) Slice(off uint64, n int) []byte {
	v := b.View(off, n)
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// View returns stream bytes [off, off+n) without copying, clipped to
// what exists. The slice aliases the buffer and is valid only until the
// next Write or Release; callers that retain the bytes must copy first.
func (b *SendBuffer) View(off uint64, n int) []byte {
	if off < b.base {
		panic("seg: SendBuffer.View before base (already released)")
	}
	if off-b.base >= uint64(b.Len()) {
		return nil
	}
	start := b.head + int(off-b.base)
	end := start + n
	if end > len(b.data) {
		end = len(b.data)
	}
	return b.data[start:end:end]
}

// Release discards bytes below stream offset upTo (they are
// acknowledged end to end). It only advances the head: the survivors
// stay where they are until a later Write needs the space (makeRoom),
// so an ack costs the same whatever the window holds. Views handed out
// earlier go stale here.
func (b *SendBuffer) Release(upTo uint64) {
	if upTo <= b.base {
		return
	}
	n := upTo - b.base
	if n > uint64(b.Len()) {
		n = uint64(b.Len())
	}
	b.head += int(n)
	b.base += n
	if b.head == len(b.data) {
		b.head, b.data = 0, b.data[:0] // empty: start over at the front
	}
}

// Free returns how many more bytes Write would accept.
func (b *SendBuffer) Free() int { return b.limit - b.Len() }

// Reassembly buffers out-of-order stream bytes on the receive side and
// yields the contiguous prefix. Segments are addressed by absolute
// stream offset.
type Reassembly struct {
	next uint64 // next offset the application expects
	// segments holds what arrived ahead of next. It is nil until the
	// first out-of-order store: a stream that arrives in order never
	// reads it, and most connections are such streams.
	segments map[uint64][]byte
	buffered int
	limit    int
}

// NewReassembly returns a reassembly buffer with the given capacity in
// buffered out-of-order bytes.
func NewReassembly(limit int) *Reassembly {
	r := new(Reassembly)
	r.Init(limit)
	return r
}

// Init readies a reassembly buffer held by value inside its owner.
func (r *Reassembly) Init(limit int) {
	if limit <= 0 {
		limit = 64 * 1024
	}
	*r = Reassembly{limit: limit}
}

// Next returns the next in-order stream offset expected.
func (r *Reassembly) Next() uint64 { return r.next }

// Buffered returns the count of out-of-order bytes held.
func (r *Reassembly) Buffered() int { return r.buffered }

// Free returns remaining buffer capacity — the basis of the advertised
// receive window.
func (r *Reassembly) Free() int {
	f := r.limit - r.buffered
	if f < 0 {
		return 0
	}
	return f
}

// Insert adds a segment at the given offset. Overlaps with already
// consumed or duplicate data are trimmed. It returns any newly
// contiguous bytes, ready for the application, which are consumed from
// the buffer. When the segment arrives exactly in order with nothing
// buffered — the overwhelmingly common case — the returned slice
// aliases data, so callers must consume it before the underlying
// buffer is reused.
func (r *Reassembly) Insert(off uint64, data []byte) []byte {
	// Fast path: in-order arrival, nothing out of order pending.
	if off == r.next && len(r.segments) == 0 && len(data) > 0 {
		r.next += uint64(len(data))
		return data
	}
	// Trim the part below next (already delivered).
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
	// Store unless an existing segment at this offset is at least as
	// long (common duplicate case). Overlapping staggered segments are
	// handled by trimming at pop time.
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

// pop drains the contiguous prefix starting at next.
func (r *Reassembly) pop() []byte {
	var out []byte
	for {
		// Find the segment covering r.next. Offsets are sparse; scan
		// keys (segment counts stay small in practice because pop
		// drains aggressively).
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
	// Opportunistically drop segments fully below next (stale overlaps).
	for off, seg := range r.segments {
		if off+uint64(len(seg)) <= r.next {
			delete(r.segments, off)
			r.buffered -= len(seg)
		}
	}
	return out
}

// Holes reports the offsets of buffered out-of-order segments, sorted
// — the receiver-side knowledge that RD summarizes for OSR ("RD passes
// hints to OSR", §3.1).
func (r *Reassembly) Holes() []uint64 {
	var out []uint64
	for off := range r.segments {
		out = append(out, off)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
