package seg

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

// Adopt gives a new buffer the array another buffer of the same limit
// gave up (Detach), for Write to fill before it allocates one. Stale
// bytes in it are never read: View returns only what was written
// since. A nil array leaves the buffer as Init made it.
func (b *SendBuffer) Adopt(storage []byte) {
	b.data = storage[:0]
}

// Detach releases every buffered byte and returns the backing array,
// which the buffer no longer refers to: its owner is done with the
// stream and hands the storage on (Adopt). End is unchanged and Base
// moves up to it.
func (b *SendBuffer) Detach() []byte {
	storage := b.data[:0]
	b.base = b.End()
	b.data, b.head = nil, 0
	return storage
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
//
// What arrived ahead of next is a slice of segments ordered by offset,
// at most one per offset: an arrival finds its place by binary search,
// and the contiguous prefix — with whatever fell wholly below next
// meanwhile — comes off the front in one walk. Each held segment is
// copied into storage the buffer recycles when the segment is popped,
// and the prefix is assembled in one scratch slice, so a stream that
// keeps losing and recovering segments allocates nothing once warm.
// The slice Insert returns is valid until the next Insert.
//
// Buffered counts stored bytes, not distinct ones: two staggered
// segments that overlap count twice until one is popped. The advertised
// window is computed from it, so the store, trim and replace rules
// below are part of the wire behaviour.
type Reassembly struct {
	next uint64 // next offset the application expects
	// held is nil until the first out-of-order store, and again after
	// Release: a stream that arrives in order never needs it, most
	// connections are such streams, and a Reassembly is a field of
	// every one of them.
	held     *heldSegs
	buffered int
	limit    int
}

// heldSegs is what a Reassembly keeps for a stream that has arrived
// out of order at least once.
type heldSegs struct {
	segs    []heldSeg // what arrived ahead of next, ascending by offset
	free    [][]byte  // storage of popped segments, for later stores
	scratch []byte    // backs the slice Insert returns
}

// heldSeg is one out-of-order segment: stream bytes [off, off+len(data))
// in storage the Reassembly owns.
type heldSeg struct {
	off  uint64
	data []byte
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
// the buffer. The returned slice is borrowed: it aliases data when the
// segment arrives exactly in order with nothing buffered — the
// overwhelmingly common case — and the buffer's scratch otherwise, so
// callers must consume it before data's buffer is reused and before
// the next Insert.
func (r *Reassembly) Insert(off uint64, data []byte) []byte {
	// Fast path: in-order arrival, nothing out of order pending.
	if off == r.next && r.buffered == 0 && len(data) > 0 {
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
	if r.held == nil {
		r.held = new(heldSegs)
	}
	r.buffered += r.held.store(off, data)
	return r.pop()
}

// store keeps a copy of data as the segment at off, unless a segment
// already held at this offset is at least as long (the common duplicate
// case), and returns by how much the stored bytes grew. Overlapping
// staggered segments are handled by trimming at pop time.
func (h *heldSegs) store(off uint64, data []byte) int {
	// Binary search for the first held segment at or above off.
	i, hi := 0, len(h.segs)
	for i < hi {
		mid := int(uint(i+hi) / 2)
		if h.segs[mid].off < off {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i < len(h.segs) && h.segs[i].off == off {
		old := &h.segs[i]
		grew := len(data) - len(old.data)
		if grew <= 0 {
			return 0
		}
		old.data = append(old.data[:0], data...)
		return grew
	}
	var buf []byte
	if n := len(h.free); n > 0 {
		buf, h.free = h.free[n-1], h.free[:n-1]
	}
	h.segs = append(h.segs, heldSeg{})
	copy(h.segs[i+1:], h.segs[i:])
	h.segs[i] = heldSeg{off: off, data: append(buf[:0], data...)}
	return len(data)
}

// pop drains the contiguous prefix starting at next. The segments are
// in offset order, so every one that can extend the prefix, and every
// one the prefix has already passed (a stale overlap), is at the front:
// the walk ends at the first segment that starts above next.
func (r *Reassembly) pop() []byte {
	h := r.held
	if h == nil {
		return nil
	}
	out := h.scratch[:0]
	k := 0
	for ; k < len(h.segs) && h.segs[k].off <= r.next; k++ {
		s := h.segs[k]
		if end := s.off + uint64(len(s.data)); end > r.next {
			out = append(out, s.data[r.next-s.off:]...)
			r.next = end
		}
		r.buffered -= len(s.data)
		h.free = append(h.free, s.data)
	}
	if k == 0 {
		return nil
	}
	h.segs = h.segs[:copy(h.segs, h.segs[k:])]
	h.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Release drops the held segments and every piece of storage the buffer
// recycles. Its owner calls it when nothing more will be delivered (the
// peer's stream has ended, or the connection is gone), so that a
// finished connection retains none of it. Next is unchanged, and a
// later Insert still works.
func (r *Reassembly) Release() { r.held, r.buffered = nil, 0 }

// Retained returns the bytes of storage the buffer holds on to: held
// segments, recycled storage and scratch.
func (r *Reassembly) Retained() int {
	if r.held == nil {
		return 0
	}
	n := cap(r.held.scratch)
	for _, s := range r.held.segs {
		n += cap(s.data)
	}
	for _, b := range r.held.free {
		n += cap(b)
	}
	return n
}

// ReadBuffer holds the in-order received bytes the application has not
// read yet. It keeps two backing arrays and swaps them in ReadAll: the
// slice ReadAll returns is borrowed, valid until the next Read or
// ReadAll, and its array is the one the swap after that fills again —
// so a reader that drains from its readable callback is served from the
// same two arrays for the life of the connection. The zero value is an
// empty buffer.
type ReadBuffer struct {
	buf   []byte // buf[off:] is unread
	off   int
	spare []byte // the array ReadAll last lent out
	done  bool   // Finish was called: nothing more is expected
}

// Append adds in-order bytes behind what is unread.
func (b *ReadBuffer) Append(p []byte) {
	// Read leaves a consumed prefix behind. When the tail meets the end
	// of the array, reclaim it rather than let append carry it into a
	// bigger one — in place only when the unread bytes fill at most half
	// the array, as SendBuffer.makeRoom does and for its reason.
	if b.off > 0 && len(b.buf)+len(p) > cap(b.buf) && 2*b.Len() <= cap(b.buf) {
		b.buf = b.buf[:copy(b.buf, b.buf[b.off:])]
		b.off = 0
	}
	b.buf = append(b.buf, p...)
}

// Len returns the count of unread bytes.
func (b *ReadBuffer) Len() int { return len(b.buf) - b.off }

// Read copies up to len(p) unread bytes into p and consumes them.
func (b *ReadBuffer) Read(p []byte) int {
	n := copy(p, b.buf[b.off:])
	b.off += n
	if b.off == len(b.buf) {
		b.buf, b.off = b.buf[:0], 0 // drained: start over at the front
		if b.done {
			b.buf = nil
		}
	}
	return n
}

// ReadAll consumes everything unread and returns it without copying.
// The slice is borrowed: the next Read or ReadAll may hand its array
// back to the buffer, so a caller that keeps the bytes copies them
// first. With nothing unread it returns nil and lends nothing.
func (b *ReadBuffer) ReadAll() []byte {
	if b.Len() == 0 {
		return nil
	}
	out := b.buf[b.off:]
	if b.done {
		// The caller gets the last array for good.
		b.buf, b.off = nil, 0
		return out
	}
	b.buf, b.spare, b.off = b.spare[:0], b.buf, 0
	return out
}

// Finish tells the buffer nothing more will be appended (the peer's
// stream has ended, or the connection is gone). It drops the spare
// array at once and the other as soon as it is drained, so a finished
// connection retains nothing. A slice already lent out stays intact.
func (b *ReadBuffer) Finish() {
	b.done, b.spare = true, nil
	if b.Len() == 0 {
		b.buf, b.off = nil, 0
	}
}

// Retained returns the bytes of storage the buffer holds on to.
func (b *ReadBuffer) Retained() int { return cap(b.buf) + cap(b.spare) }
