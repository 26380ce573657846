package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// readKinds are the two receive paths: sublayered (RD, OSR, Conn) and
// monolithic (tcpReceive, PCB). The shim shares the first.
var readKinds = []Kind{KindSublayeredNative, KindMonolithic}

// stream dials one connection over w and pushes data through it,
// closing after the last byte; onAccept gets the receiving end.
func stream(t *testing.T, w *World, data []byte, onAccept func(transport.Conn)) transport.Conn {
	t.Helper()
	if err := w.Server.Listen(80, onAccept); err != nil {
		t.Fatal(err)
	}
	cc, err := w.Client.Dial(w.ServerAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	toSend := data
	push := func() {
		for len(toSend) > 0 {
			n := cc.Write(toSend)
			if n == 0 {
				return
			}
			toSend = toSend[n:]
		}
		cc.Close()
	}
	cc.Callbacks(push, nil, push, nil)
	return cc
}

// TestReceivePathDoesNotAllocate streams over a clean link and over one
// that reorders (so holes open and close all the way through), reading
// with ReadAll from the readable callback, and counts the heap
// allocations of the whole world — both hosts, the link, the simulator
// — per segment delivered to the reader once the first 256 KiB have
// sized every buffer. The receive path used to cost one allocation per
// read (ReadAll gave its buffer away) and, behind a hole, two more per
// segment held and popped; what is left is the control plane's hellos
// and advertisements over the same virtual time, a few in a thousand
// segments.
func TestReceivePathDoesNotAllocate(t *testing.T) {
	const warm, measured = 256 << 10, 1 << 20
	// Profile every allocation, so poolAllocs can tell the buffer
	// pool's own apart.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	data := randBytes(warm+measured, 7)
	links := []struct {
		name string
		link netsim.LinkConfig
	}{
		{"clean", netsim.LinkConfig{Delay: time.Millisecond}},
		{"reordering", netsim.LinkConfig{Delay: time.Millisecond, ReorderProb: 0.05}},
	}
	for _, k := range readKinds {
		for _, l := range links {
			t.Run(k.String()+"/"+l.name, func(t *testing.T) {
				w := BuildWorld(WorldConfig{Seed: 3, Hops: 2, Link: l.link, Client: k, Server: k})
				defer w.Close()
				off, reads, intact := 0, 0, true
				stream(t, w, data, func(sc transport.Conn) {
					sc.Callbacks(nil, func() {
						p := sc.ReadAll()
						if len(p) == 0 {
							return
						}
						reads++
						intact = intact && off+len(p) <= len(data) && bytes.Equal(p, data[off:off+len(p)])
						off += len(p)
					}, nil, nil)
				})
				runUntil := func(n int) {
					for step := 0; off < n; step++ {
						if step == 10_000 {
							t.Fatalf("stalled at %d of %d bytes", off, n)
						}
						w.Sim.RunFor(5 * time.Millisecond)
					}
				}
				runUntil(warm)
				pool := poolAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				from := reads
				runUntil(len(data))
				runtime.ReadMemStats(&after)
				pool = poolAllocs() - pool
				if !intact || off != len(data) {
					t.Fatalf("stream damaged or long: %d of %d bytes read, intact=%v", off, len(data), intact)
				}
				// What the buffer pool allocates is not the receive
				// path's: wire buffers made afresh, and sync.Pool's
				// per-P arrays and rings, rebuilt after each GC empties
				// the pools. None once warm, except under the race
				// detector, whose sync.Pool drops a share of what is put
				// back; the fresh buffers then bring GCs on.
				allocs := after.Mallocs - before.Mallocs - pool
				perRead := float64(allocs) / float64(reads-from)
				t.Logf("%d allocations (and %d by the buffer pool) over %d reads: %.4f per read", allocs, pool, reads-from, perRead)
				if perRead > 0.05 {
					t.Errorf("%.4f heap allocations per delivered segment, want 0 (<= 0.05 for the control plane)", perRead)
				}
			})
		}
	}
}

// TestReadAllLendsItsSlice holds a reader to the borrow rule over a
// link that loses, duplicates and reorders, so holes open and close
// between any two reads: what ReadAll returned is still intact at the
// next read, however many segments arrived and were reassembled in
// between; an empty ReadAll hands out nothing; Read with a short p
// interleaved with ReadAll, across the buffer swaps, continues the
// stream where the last read left it; and the whole stream comes out in
// order.
func TestReadAllLendsItsSlice(t *testing.T) {
	for _, k := range readKinds {
		t.Run(k.String(), func(t *testing.T) {
			w := BuildWorld(WorldConfig{Seed: 11, Link: nastyLink(), Client: k, Server: k})
			defer w.Close()
			data := randBytes(400_000, 12)
			type reader interface {
				transport.Conn
				Read(p []byte) (int, bool)
			}
			var sc reader
			stream(t, w, data, func(c transport.Conn) { sc = c.(reader) })
			var got, lent, lentCopy []byte
			short := make([]byte, 700)
			for step := 0; sc == nil || !sc.EOF(); step++ {
				if step == 100_000 {
					t.Fatalf("stalled at %d of %d bytes", len(got), len(data))
				}
				// Long enough for a few dozen segments, and with them a
				// loss or two, to arrive behind the slice on loan.
				w.Sim.RunFor(3 * time.Millisecond)
				if sc == nil {
					continue
				}
				if !bytes.Equal(lent, lentCopy) {
					t.Fatalf("step %d: the %d bytes ReadAll lent out changed before the next read", step, len(lent))
				}
				if step%3 == 2 {
					n, _ := sc.Read(short)
					got = append(got, short[:n]...)
					lent, lentCopy = nil, nil // Read ends the loan
					continue
				}
				lent = sc.ReadAll()
				lentCopy = append(lentCopy[:0], lent...)
				got = append(got, lent...)
				if again := sc.ReadAll(); len(again) != 0 || cap(again) != 0 {
					t.Fatalf("step %d: a second ReadAll with nothing between returned len %d cap %d", step, len(again), cap(again))
				}
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("stream read back differs (%d of %d bytes)", len(got), len(data))
			}
			var lost uint64
			for _, d := range w.Topo.Links {
				lost += d.AB.Stats().Get("lost") + d.AB.Stats().Get("reordered")
			}
			if lost == 0 {
				t.Error("the client-to-server links lost and reordered nothing: no hole ever opened behind a lent slice")
			}
		})
	}
}

// poolAllocs counts the heap objects allocated so far with package
// bufpool on the stack. It runs a GC first, since the profile it reads
// is complete only up to the last one; exact only at MemProfileRate 1.
func poolAllocs() uint64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var objs uint64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasPrefix(f.Function, "repro/internal/bufpool.") {
				objs += uint64(r.AllocObjects)
				break
			}
		}
	}
	return objs
}
