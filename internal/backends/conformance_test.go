package backends

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

// The link model is one pipeline (netsim's linkCore) under four
// carriages. This table holds every carriage to the same behaviour:
// each case runs against the sequential simulator, a cross-shard link
// of the sharded engine, the channel network and loopback UDP. Nothing
// here depends on exact arrival times, so the same assertions hold in
// virtual and in wall-clock time.

// forced is a scripted fate source: each fate it sets is forced on
// every frame, and the source below decides the rest.
type forced struct {
	netsim.Fates
	lost, late, dup bool
}

func (f *forced) Lost(rng *rand.Rand) bool { return f.lost || f.Fates.Lost(rng) }
func (f *forced) Late(rng *rand.Rand) bool { return f.late || f.Fates.Late(rng) }
func (f *forced) Dup(rng *rand.Rand) bool  { return f.dup || f.Fates.Dup(rng) }

// carriage is one way of carrying a link: the driver-side backend plus
// the (possibly distinct) node backends of the link's two ends.
type carriage struct {
	b        netsim.Backend
	src, dst netsim.Backend
}

var carriageKinds = []string{Sim, Sharded + ":2", Chan, UDP}

func openCarriage(t *testing.T, kind string) *carriage {
	t.Helper()
	if kind == UDP && !UDPAvailable() {
		t.Skip("loopback UDP sockets unavailable")
	}
	b, err := New(kind, 7, nil)
	if err != nil {
		t.Fatalf("New(%q): %v", kind, err)
	}
	t.Cleanup(func() { b.Close() })
	c := &carriage{b: b, src: b, dst: b}
	if sh, ok := b.(netsim.Sharder); ok {
		c.src, c.dst = sh.NodeView(0), sh.NodeView(1)
	}
	return c
}

// capture is what a link's destination handler saw.
type capture struct {
	data [][]byte
	ecn  int
}

// link wires one link whose handler records into the returned capture.
// The handler scribbles over each delivered buffer after copying it, so
// a duplicate that aliased the original would arrive corrupted. A cut
// link needs a positive delay, so every case gets at least 1 ms.
func (c *carriage) link(cfg netsim.LinkConfig) (netsim.Port, *capture) {
	if cfg.Delay == 0 {
		cfg.Delay = time.Millisecond
	}
	got := &capture{}
	var port netsim.Port
	c.b.Exec(func() {
		port = netsim.LinkOn(c.src, cfg, func(p *netsim.Packet) {
			got.data = append(got.data, append([]byte(nil), p.Data...))
			if p.ECN {
				got.ecn++
			}
			for i := range p.Data {
				p.Data[i] = 0xEE
			}
		}, c.dst)
	})
	return port, got
}

// settle lets the world run until every packet handed to port has met
// its fate — sent + duplicate = delivered + lost + queue_drop +
// down_drop — and returns the counters. Reaching that balance at all is
// the conservation check every case gets for free.
func (c *carriage) settle(t *testing.T, port netsim.Port) map[string]uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.b.RunFor(2 * time.Millisecond)
		var st map[string]uint64
		c.b.Exec(func() { st = port.Stats() })
		if st["sent"]+st["duplicate"] == st["delivered"]+st["lost"]+st["queue_drop"]+st["down_drop"] {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("link counters never balanced: %v", st)
		}
	}
}

func sendN(c *carriage, port netsim.Port, n, size int) {
	c.b.Exec(func() {
		for i := 0; i < n; i++ {
			port.Send(bytes.Repeat([]byte{byte(i)}, size))
		}
	})
}

func want(t *testing.T, st map[string]uint64, key string, v uint64) {
	t.Helper()
	if st[key] != v {
		t.Errorf("%s = %d, want %d (all: %v)", key, st[key], v, st)
	}
}

var conformanceCases = []struct {
	name string
	run  func(t *testing.T, c *carriage)
}{
	{"loss-all", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{LossProb: 1})
		sendN(c, port, 50, 8)
		st := c.settle(t, port)
		want(t, st, "lost", 50)
		want(t, st, "delivered", 0)
		if len(got.data) != 0 {
			t.Errorf("handler saw %d packets", len(got.data))
		}
	}},
	{"dup-deep-copy", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{DupProb: 1})
		c.b.Exec(func() { port.Send([]byte("dup me")) })
		st := c.settle(t, port)
		want(t, st, "duplicate", 1)
		want(t, st, "delivered", 2)
		for i, d := range got.data {
			if string(d) != "dup me" {
				t.Errorf("delivery %d = %q: the duplicate aliased the original", i, d)
			}
		}
	}},
	{"corrupt-one-bit", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{CorruptProb: 1})
		orig := []byte{0xAA, 0xBB, 0xCC}
		c.b.Exec(func() { port.Send(orig) })
		st := c.settle(t, port)
		want(t, st, "corrupted", 1)
		if len(got.data) != 1 {
			t.Fatalf("handler saw %d packets, want 1", len(got.data))
		}
		if !bytes.Equal(orig, []byte{0xAA, 0xBB, 0xCC}) {
			t.Fatal("corruption mutated the caller's buffer")
		}
		diff := 0
		for i, b := range got.data[0] {
			diff += bits.OnesCount8(b ^ orig[i])
		}
		if diff != 1 {
			t.Errorf("corruption flipped %d bits, want 1", diff)
		}
	}},
	{"queue-limit-drop", func(t *testing.T, c *carriage) {
		// 1000 B at 8 Mb/s holds the serializer 1 ms; ten back-to-back
		// sends find two queue slots.
		port, got := c.link(netsim.LinkConfig{RateBps: 8_000_000, QueueLimit: 2})
		sendN(c, port, 10, 1000)
		st := c.settle(t, port)
		want(t, st, "queue_drop", 8)
		want(t, st, "delivered", 2)
		if len(got.data) != 2 {
			t.Errorf("handler saw %d packets, want 2", len(got.data))
		}
	}},
	{"ecn-threshold-mark", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{RateBps: 8_000_000, QueueLimit: 100, ECNThreshold: 2})
		sendN(c, port, 10, 1000)
		st := c.settle(t, port)
		want(t, st, "delivered", 10)
		want(t, st, "ecn_marked", 8)
		if got.ecn != 8 {
			t.Errorf("%d packets arrived marked, want 8", got.ecn)
		}
	}},
	{"down-at-send", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{})
		c.b.Exec(func() { port.SetUp(false) })
		sendN(c, port, 5, 8)
		st := c.settle(t, port)
		want(t, st, "down_drop", 5)
		want(t, st, "lost", 0)
		c.b.Exec(func() { port.SetUp(true) })
		sendN(c, port, 1, 8)
		st = c.settle(t, port)
		want(t, st, "delivered", 1)
		if len(got.data) != 1 || !port.Up() {
			t.Errorf("restored link delivered %d packets, up=%v", len(got.data), port.Up())
		}
	}},
	{"down-mid-flight", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{Delay: 20 * time.Millisecond})
		c.b.Exec(func() {
			port.Send([]byte("doomed"))
			port.SetUp(false) // the packet is already in flight
		})
		st := c.settle(t, port)
		want(t, st, "down_drop", 1)
		want(t, st, "delivered", 0)
		if len(got.data) != 0 {
			t.Error("packet delivered over a cut link")
		}
	}},
	{"retune-at-runtime", func(t *testing.T, c *carriage) {
		// A source wrapped on with Impair decides from the next frame:
		// lost, then duplicated, then late.
		port, got := c.link(netsim.LinkConfig{})
		src := &forced{lost: true}
		c.b.Exec(func() { port.Impair(func(below netsim.Fates) netsim.Fates { src.Fates = below; return src }) })
		sendN(c, port, 5, 8)
		want(t, c.settle(t, port), "lost", 5)
		c.b.Exec(func() { src.lost, src.dup = false, true })
		sendN(c, port, 1, 8)
		st := c.settle(t, port)
		want(t, st, "duplicate", 1)
		want(t, st, "delivered", 2)
		c.b.Exec(func() { src.dup, src.late = false, true })
		sendN(c, port, 3, 8)
		st = c.settle(t, port)
		want(t, st, "reordered", 3)
		want(t, st, "delivered", 5)
		want(t, st, "lost", 5)
		if len(got.data) != 5 {
			t.Errorf("handler saw %d packets, want 5", len(got.data))
		}
	}},
	{"send-no-alias", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{Delay: 5 * time.Millisecond})
		buf := []byte("caller-owned payload")
		c.b.Exec(func() {
			port.Send(buf)
			for i := range buf {
				buf[i] = 'X' // in flight: scribbling must not reach it
			}
		})
		c.settle(t, port)
		if len(got.data) != 1 || string(got.data[0]) != "caller-owned payload" {
			t.Errorf("delivery aliased caller memory: %q", got.data)
		}
	}},
	{"conservation", func(t *testing.T, c *carriage) {
		port, got := c.link(netsim.LinkConfig{
			Jitter: time.Millisecond, RateBps: 80_000_000, QueueLimit: 8,
			LossProb: 0.2, DupProb: 0.2, ReorderProb: 0.2, CorruptProb: 0.2,
		})
		for round := 0; round < 10; round++ {
			sendN(c, port, 12, 500)
			c.b.RunFor(time.Millisecond)
		}
		st := c.settle(t, port)
		want(t, st, "sent", 120)
		for _, k := range []string{"delivered", "lost", "duplicate", "reordered", "corrupted", "queue_drop"} {
			if st[k] == 0 {
				t.Errorf("%s = 0: the case no longer exercises it (%v)", k, st)
			}
		}
		if uint64(len(got.data)) != st["delivered"] {
			t.Errorf("handler saw %d packets, delivered = %d", len(got.data), st["delivered"])
		}
	}},
}

func TestLinkConformance(t *testing.T) {
	for _, kind := range carriageKinds {
		t.Run(kind, func(t *testing.T) {
			for _, tc := range conformanceCases {
				t.Run(tc.name, func(t *testing.T) { tc.run(t, openCarriage(t, kind)) })
			}
		})
	}
}

// TestCloseTwice pins Backend.Close as idempotent on every backend:
// World.Close is designed to be deferred unconditionally, so a second
// call must be a no-op, not a double close of a link's channel.
func TestCloseTwice(t *testing.T) {
	for _, kind := range carriageKinds {
		t.Run(kind, func(t *testing.T) {
			c := openCarriage(t, kind)
			port, _ := c.link(netsim.LinkConfig{})
			sendN(c, port, 1, 8)
			c.settle(t, port)
			for i := 0; i < 2; i++ {
				if err := c.b.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
		})
	}
}
