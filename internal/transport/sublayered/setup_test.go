package sublayered

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
)

// bareStack is a stack on an unconnected router: enough to build
// connections, not to carry them.
func bareStack(cfg Config) *Stack {
	sim := netsim.NewSimulator(1)
	r := network.NewRouter(sim, 1, network.NewDistanceVector(network.DVConfig{}), network.NeighborConfig{})
	return NewStack(sim, r, cfg)
}

// TestConnGroupNames: one connection exports crossings, RD and OSR
// (plus CM when the manager has instruments) under
// "conn<n>/<sublayer>/<leaf>", and its counters are the live ones.
func TestConnGroupNames(t *testing.T) {
	for _, tc := range []struct {
		name, cm string
		want     int
	}{
		{"handshake", CMHandshake, 30},
		{"timer", CMWatson, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			s := bareStack(Config{CM: tc.cm, Metrics: reg.Scope("n1")})
			before := reg.Len()
			s.newConn(tcpwire.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 50000, DstPort: 80})
			c := s.newConn(tcpwire.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 50001, DstPort: 80})
			if got := reg.Len() - before; got != 2*tc.want {
				t.Fatalf("two connections added %d instruments, want %d", got, 2*tc.want)
			}
			c.crossings.ToDM.Add(3)
			c.rd.m.rttMs.Observe(7)
			c.osr.m.windowStalls.Inc()
			snap := reg.Snapshot()
			for name, want := range map[string]int64{
				"n1/conn1/crossings/to_dm":   3,
				"n1/conn1/rd/rtt_ms":         1,
				"n1/conn1/osr/window_stalls": 1,
				"n1/conn0/crossings/to_dm":   0,
			} {
				sm, ok := snap.Get(name)
				if !ok || sm.Value != want {
					t.Errorf("%s = %d (present %v), want %d", name, sm.Value, ok, want)
				}
			}
			_, hasCM := snap.Get("n1/conn1/cm/syn_sent")
			if hasCM != (tc.want == 30) {
				t.Errorf("conn1/cm/syn_sent present = %v", hasCM)
			}
			// The manager's Stats() view and the registry list the same
			// leaves, as TestViewsMatchRegisteredNames (internal/transport/harness)
			// checks for every other component.
			if hm, ok := c.cm.(*HandshakeCM); ok {
				var registered, viewed []string
				for _, s := range snap.Samples {
					if leaf, ok := strings.CutPrefix(s.Name, "n1/conn1/cm/"); ok {
						registered = append(registered, leaf)
					}
				}
				for k := range hm.Stats() {
					viewed = append(viewed, k)
				}
				sort.Strings(viewed) // snapshot samples are already sorted by name
				if len(registered) == 0 || fmt.Sprint(viewed) != fmt.Sprint(registered) {
					t.Errorf("cm view keys %v, registered leaves %v", viewed, registered)
				}
			}
		})
	}
}

// TestUnknownCMPanics: Config.CM is a name, checked when the stack is
// built rather than at the first connection.
func TestUnknownCMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStack accepted an unknown connection manager")
		}
	}()
	bareStack(Config{CM: "three-way-wave"})
}

// TestNewConnAllocsFlat is the guard on per-connection cost: with a
// registry attached, building a connection allocates a bounded number
// of objects, and the same number whether it is the first connection
// or the 100 001st. Each connection built gives its parts back before
// the next is built, as a finished one does, so this is the steady
// state of a stack whose connections come and go.
func TestNewConnAllocsFlat(t *testing.T) {
	measure := func(prior int) float64 {
		s := bareStack(Config{Metrics: metrics.New().Scope("n1").Sub("transport")})
		// Earlier connections matter only through what they left in the
		// registry: one member each of the stack's family.
		earlier := new(Conn)
		for ; s.connSeq < prior; s.connSeq++ {
			s.conns.Join(s.connSeq, handshakeLeaves, earlier)
		}
		key := tcpwire.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 50000, DstPort: 80}
		return testing.AllocsPerRun(1000, func() { s.newConn(key).release() })
	}
	empty, loaded := measure(0), measure(100_000)
	t.Logf("newConn: %v objects", empty)
	if empty != loaded {
		t.Errorf("newConn allocates %v objects on an empty registry, %v after 100k connections", empty, loaded)
	}
	// Measured 2: the Conn (RD, OSR and their parts are values inside
	// it) and its connection manager, behind an interface. The
	// controller, the timer callbacks and the send-side arrays come from
	// the bundle the previous connection gave back (connParts); a stack
	// with none spare makes a bundle and a controller, and the bundle
	// its callbacks at the first arm of each kind, once per connection
	// the stack holds open at a time.
	// Joining the stack's "conn" family allocates nothing of its own.
	// One spare for the family's amortised slice growth landing inside
	// the measured runs; anything per sublayer, per instrument or per
	// name is over.
	if empty > 3 {
		t.Errorf("newConn allocates %v objects with a registry attached, want <= 3", empty)
	}
}

// TestConnSizeClass guards what each of those connections weighs. The
// Conn is one object, so the allocator rounds its size up to a size
// class, and churn keeps twenty thousand of them reachable per phase.
// Measured: at 1 232 bytes (the 1 280 class) `flows_per_s` on churn was
// 4 % below what it is at 1 144 (the 1 152 class), lower in ten pairs
// of ten. That is why seg.Reassembly keeps its out-of-order state
// behind a pointer and OSR its flags in one word; a new field that does
// not fit belongs behind one of the two interfaces, or in something
// that already allocates lazily.
func TestConnSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Conn{}); size > 1152 {
		t.Errorf("a Conn is %d bytes: over the 1152-byte size class", size)
	}
}

// TestDialPortsFollowTheTable: ephemeral ports count up from 49152,
// skip a listener and live connections, and come back into use once
// the connection that held them is gone.
func TestDialPortsFollowTheTable(t *testing.T) {
	w := newWorld(t, 1, cleanLink(), Config{}, Config{})
	if _, err := w.client.Listen(49153); err != nil {
		t.Fatal(err)
	}
	dial := func() *Conn {
		t.Helper()
		c, err := w.client.Dial(4, 80)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := dial(), dial()
	if a.LocalPort() != 49152 || b.LocalPort() != 49154 {
		t.Fatalf("dialled from %d and %d, want 49152 and 49154 (49153 is listening)", a.LocalPort(), b.LocalPort())
	}
	a.Abort()
	// Walk the allocator once round the range: 49152 is free again, the
	// listener's and b's ports are not.
	for port := 49155; port <= 65535; port++ {
		c := dial()
		if int(c.LocalPort()) != port {
			t.Fatalf("dialled from %d, want %d", c.LocalPort(), port)
		}
		c.Abort()
	}
	c, d := dial(), dial()
	if c.LocalPort() != 49152 || d.LocalPort() != 49155 {
		t.Fatalf("after wrap dialled from %d and %d, want 49152 and 49155", c.LocalPort(), d.LocalPort())
	}
	if got := len(w.client.dm.conns); got != 3 {
		t.Fatalf("client has %d live connections, want 3", got)
	}
}

// TestConnLifeAllocs is the guard on what a whole connection life
// costs: dial, 4 KiB one way, close from both ends, and the quiet
// period run out, so the end that held TIME_WAIT is gone too. It counts
// the allocations of both ends, less what the idle world allocates over
// the same virtual time, early in the world's life and in the lives up
// to the 1 000th connection. The counts are equal: what a
// finished connection borrowed from its stack the next one takes, and
// nothing a connection leaves behind grows with their number.
func TestConnLifeAllocs(t *testing.T) {
	w := newWorld(t, 1, cleanLink(), Config{}, Config{})
	lis, err := w.server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	// The test's callbacks are built once, so it allocates nothing per
	// life.
	payload := make([]byte, 4<<10)
	var cli, srv *Conn
	got := 0
	onReadable := func() {
		got += len(srv.ReadAll())
		if srv.EOF() {
			srv.Close()
		}
	}
	lis.OnAccept = func(c *Conn) { srv, c.OnReadable = c, onReadable }
	onConnected := func() {
		cli.Write(payload)
		cli.Close()
	}
	// A life's window is a whole number of hello and advertisement
	// periods, so the idle world allocates the same in every window.
	const window = transport.TimeWait + time.Second
	lives := 0
	life := func() {
		c, err := w.client.Dial(4, 80)
		if err != nil {
			t.Fatal(err)
		}
		cli, c.OnConnected = c, onConnected
		w.sim.RunFor(window)
		if lives++; c.State() != transport.StateClosed || srv.State() != transport.StateClosed || got != lives*len(payload) {
			t.Fatalf("life %d ended with client %s, server %s, %d of %d bytes read", lives, c.State(), srv.State(), got, lives*len(payload))
		}
	}
	// perLife is the fewest allocations per run over five windows of
	// ten runs of f, less the buffer pool's own. The pool is a set of
	// sync.Pools, which every collection empties, the race detector
	// drains at random, and each P caches apart: the collector is off,
	// and one P runs, from three runs before the first window, which
	// rebuild what the last collection emptied; fresh buffers are not
	// counted. What is left can only gain a stray allocation of the
	// runtime's or sync.Pool's in a window under the race detector,
	// never lose one of the program's, so the fewest is the count.
	perLife := func(f func()) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for range 3 {
			f()
		}
		fewest := math.Inf(1)
		for range 5 {
			var before, after runtime.MemStats
			fresh := bufpool.Snapshot().Fresh
			runtime.ReadMemStats(&before)
			for range 10 {
				f()
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, float64(after.Mallocs-before.Mallocs-(bufpool.Snapshot().Fresh-fresh))/10)
		}
		return fewest
	}
	idle := perLife(func() { w.sim.RunFor(window) })
	// The first lives grow the simulator's event store to the depth a
	// life needs; from the twentieth on, the count is the connections'.
	for lives < 17 {
		life()
	}
	early := perLife(life) - idle // connections 21-70
	for lives < 947 {
		life()
	}
	late := perLife(life) - idle // connections 951-1000
	t.Logf("a connection life allocates %v objects at connections 21-70, %v at 951-1000 (the idle world %v per window)", early, late, idle)
	if early != late {
		t.Errorf("a connection life allocates %v objects at connections 21-70, %v at 951-1000", early, late)
	}
	// Measured 6, both ends: the two Conns and their two managers,
	// which a closed handle keeps, and the server's two read buffer
	// arrays, the second of which ReadAll lends for good once the
	// stream has ended. The controllers, the timer callbacks, RD's
	// retransmission queue and the send buffer's storage go back to the
	// stacks, and the receiver's range set holds its one range itself:
	// 17 (about 9 a connection end) when each was the connection's own.
	if late > 6 {
		t.Errorf("a connection life allocates %v objects, want <= 6", late)
	}
}
