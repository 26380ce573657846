package seg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// bufOps is a quick.Generator producing a random interleaving of
// send-buffer operations (writes, releases) used to check the buffer's
// laws against a flat-slice oracle.
type bufOps struct {
	ops []bufOp
}

type bufOp struct {
	kind    int // 0 write, 1 release
	data    []byte
	release uint64
}

// Generate implements quick.Generator.
func (bufOps) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(40)
	out := bufOps{ops: make([]bufOp, n)}
	for i := range out.ops {
		if r.Intn(3) == 0 {
			out.ops[i] = bufOp{kind: 1, release: uint64(r.Intn(2000))}
		} else {
			d := make([]byte, r.Intn(200))
			r.Read(d)
			out.ops[i] = bufOp{kind: 0, data: d}
		}
	}
	return reflect.ValueOf(out)
}

// Property: SendBuffer behaves like a window over the concatenation of
// accepted writes — Slice always returns the oracle's bytes, Base/End
// track releases and writes, and capacity is never exceeded.
func TestQuickSendBufferOracle(t *testing.T) {
	f := func(ops bufOps) bool {
		const limit = 512
		b := NewSendBuffer(limit)
		var oracle []byte // all accepted bytes ever
		released := uint64(0)
		for _, op := range ops.ops {
			switch op.kind {
			case 0:
				n := b.Write(op.data)
				oracle = append(oracle, op.data[:n]...)
				if len(oracle)-int(released) > limit {
					return false // over capacity
				}
			case 1:
				// Release monotonically, clipped like callers do.
				upTo := released + op.release
				if upTo > uint64(len(oracle)) {
					upTo = uint64(len(oracle))
				}
				b.Release(upTo)
				if upTo > released {
					released = upTo
				}
			}
			if b.Base() != released || b.End() != uint64(len(oracle)) {
				return false
			}
			// Random probe.
			if b.Len() > 0 {
				off := released + uint64(rand.Intn(b.Len()))
				got := b.View(off, 10)
				end := int(off) + len(got)
				if !bytes.Equal(got, oracle[off:end]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// segStream is a quick.Generator producing a stream chopped into
// shuffled, duplicated, overlapping segments.
type segStream struct {
	stream []byte
	pieces []streamPiece
}

type streamPiece struct {
	off  uint64
	data []byte
}

// Generate implements quick.Generator.
func (segStream) Generate(r *rand.Rand, size int) reflect.Value {
	stream := make([]byte, 50+r.Intn(800))
	r.Read(stream)
	var pieces []streamPiece
	for at := 0; at < len(stream); {
		n := 1 + r.Intn(90)
		if at+n > len(stream) {
			n = len(stream) - at
		}
		pieces = append(pieces, streamPiece{uint64(at), stream[at : at+n]})
		at += n
	}
	// Duplicates and overlapping re-slices.
	for i := 0; i < len(pieces)/2; i++ {
		p := pieces[r.Intn(len(pieces))]
		if len(p.data) > 2 {
			cut := 1 + r.Intn(len(p.data)-1)
			pieces = append(pieces, streamPiece{p.off + uint64(cut), p.data[cut:]})
		} else {
			pieces = append(pieces, p)
		}
	}
	r.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
	return reflect.ValueOf(segStream{stream: stream, pieces: pieces})
}

// Property: Reassembly reconstructs the exact stream from any shuffled,
// duplicated, overlapping segmentation, and ends with an empty buffer.
func TestQuickReassemblyReconstructs(t *testing.T) {
	f := func(ss segStream) bool {
		ra := NewReassembly(1 << 20)
		var out []byte
		for _, p := range ss.pieces {
			out = append(out, ra.Insert(p.off, p.data)...)
		}
		return bytes.Equal(out, ss.stream) && ra.buffered == 0 && ra.Next() == uint64(len(ss.stream))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: RangeSet.Add is idempotent and order-independent — any
// permutation of the same adds yields the same coalesced ranges.
func TestQuickRangeSetOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		type span struct{ from, to uint64 }
		spans := make([]span, n)
		for i := range spans {
			from := uint64(r.Intn(500))
			spans[i] = span{from, from + uint64(1+r.Intn(40))}
		}
		build := func(order []int) [][2]uint64 {
			var s RangeSet
			for _, i := range order {
				s.Add(spans[i].from, spans[i].to)
				s.Add(spans[i].from, spans[i].to) // idempotence
			}
			return s.Ranges()
		}
		fwd := make([]int, n)
		rev := make([]int, n)
		shuf := make([]int, n)
		for i := 0; i < n; i++ {
			fwd[i], rev[n-1-i], shuf[i] = i, i, i
		}
		r.Shuffle(n, func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		a, b, c := build(fwd), build(rev), build(shuf)
		eq := func(x, y [][2]uint64) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		return eq(a, b) && eq(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
