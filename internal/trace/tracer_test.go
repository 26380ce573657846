package trace_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/trace"
	"repro/internal/transport/harness"
)

// lossyWorld builds a traced line topology with random loss and runs a
// bidirectional transfer, returning the collector (and, when capture
// is non-nil, streaming link frames into it as pcapng).
func lossyWorld(t *testing.T, seed int64, kind harness.Kind, opts trace.Options, capture *bytes.Buffer) *trace.Collector {
	t.Helper()
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: seed,
		Link: netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.05},
		Hops: 3, Client: kind, Server: kind,
	})
	col := trace.NewCollector(opts)
	if capture != nil {
		pw, err := pcap.NewWriter(capture)
		if err != nil {
			t.Fatalf("pcap.NewWriter: %v", err)
		}
		col.CaptureTo(pw)
	}
	w.Sim.SetTracer(col)
	if _, err := harness.RunTransfer(w, bytes.Repeat([]byte("x"), 32<<10), []byte("pong"), 30*time.Second); err != nil {
		t.Fatalf("RunTransfer: %v", err)
	}
	return col
}

// TestCausalChainOfInjectedDrop reconstructs the lifecycle of a packet
// that the lossy link swallowed: its chain must begin at the transport
// (xmit), pass through the network layer, and terminate with the link's
// lost verdict — the paper's "a trace line points at one module"
// debugging claim made executable.
func TestCausalChainOfInjectedDrop(t *testing.T) {
	for _, kind := range []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic} {
		// A generous completed-chain cap: the transfer finishes early in
		// the budget and control-plane chains churn afterwards, so the
		// default ring would age the interesting chains out.
		col := lossyWorld(t, 7, kind, trace.Options{DoneCap: 1 << 15}, nil)
		if col.Report().Total == 0 {
			t.Fatalf("%v: no events traced", kind)
		}
		rep := col.Report()
		chains := append(rep.Completed, rep.Live...)
		found := false
		for _, ch := range chains {
			n := len(ch.Events)
			if n == 0 || ch.Events[n-1].Verdict != netsim.VerdictLost {
				continue
			}
			var hasXmit, hasNet bool
			for _, ev := range ch.Events {
				hasXmit = hasXmit || (ev.Layer == netsim.LayerTransport && ev.Kind == "xmit")
				hasNet = hasNet || ev.Layer == netsim.LayerNet
			}
			if hasXmit && hasNet {
				if ch.Flow == 0 {
					t.Errorf("%v: lost-packet chain %d has no flow correlator", kind, ch.ID)
				}
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%v: no full transport→net→lost chain among %d chains", kind, len(chains))
		}
	}
}

// TestDeliveredChainSpansAllLayers checks the happy path: a delivered
// data packet's chain crosses transport, network and link layers and
// ends with the destination router's delivered verdict.
func TestDeliveredChainSpansAllLayers(t *testing.T) {
	col := lossyWorld(t, 11, harness.KindSublayeredNative, trace.Options{DoneCap: 1 << 15}, nil)
	rep := col.Report()
	for _, ch := range rep.Completed {
		n := len(ch.Events)
		if n == 0 || ch.Events[n-1].Verdict != netsim.VerdictDelivered || ch.Flow == 0 {
			continue
		}
		layers := map[string]bool{}
		for _, ev := range ch.Events {
			layers[ev.Layer] = true
		}
		if layers[netsim.LayerTransport] && layers[netsim.LayerNet] && layers[netsim.LayerLink] {
			return // found one complete three-layer delivery
		}
	}
	t.Error("no delivered chain spanning transport+net+link")
}

// TestRingOverflow drives far more events than the ring holds and
// checks oldest-drop accounting: emission never blocks or fails, the
// window stays exactly at capacity, and every drop is counted.
func TestRingOverflow(t *testing.T) {
	const cap = 64
	col := lossyWorld(t, 3, harness.KindMonolithic, trace.Options{RingCap: cap}, nil)
	if col.Report().Total <= cap {
		t.Fatalf("want > %d events to force overflow, got %d", cap, col.Report().Total)
	}
	recent := col.Recent()
	if len(recent) != cap {
		t.Fatalf("retained window = %d, want %d", len(recent), cap)
	}
	if got := col.Report().RingDropped; got != col.Report().Total-cap {
		t.Fatalf("dropped = %d, want total-cap = %d", got, col.Report().Total-cap)
	}
	// The window must be the *most recent* events in order.
	for i := 1; i < len(recent); i++ {
		if recent[i].At < recent[i-1].At {
			t.Fatalf("ring window out of order at %d: %v after %v", i, recent[i].At, recent[i-1].At)
		}
	}
}

// TestChainEviction bounds live chains and checks early finalization:
// chains that never see a terminal event cannot grow the live set past
// MaxChains — the oldest is finalized into the completed ring instead.
func TestChainEviction(t *testing.T) {
	col := trace.NewCollector(trace.Options{MaxChains: 8, DoneCap: 16})
	for i := 0; i < 100; i++ {
		buf := make([]byte, 8)
		id := col.Stamp(buf)
		col.Emit(netsim.TraceEvent{ID: id, Node: "link0", Layer: netsim.LayerLink, Kind: "transmit"}, nil)
	}
	if got := col.Report().Evicted; got != 100-8 {
		t.Fatalf("evicted = %d, want %d", got, 100-8)
	}
	rep := col.Report()
	if len(rep.Live) != 8 {
		t.Fatalf("live chains = %d, want 8", len(rep.Live))
	}
	if len(rep.Completed) != 16 {
		t.Fatalf("completed chains = %d, want 16 (DoneCap)", len(rep.Completed))
	}
}

// TestFlightDumpDeterminism runs the same seeded world twice and
// requires byte-identical flight-recorder JSON — the property that
// makes a chaos-run dump diffable across reruns.
func TestFlightDumpDeterminism(t *testing.T) {
	dump := func() []byte {
		col := lossyWorld(t, 21, harness.KindSublayeredNative, trace.Options{}, nil)
		var b bytes.Buffer
		if err := col.WriteJSON(&b); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return b.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed trace dumps differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestPcapByteIdentity is the golden-capture gate: two same-seed runs
// must produce byte-identical pcapng files.
func TestPcapByteIdentity(t *testing.T) {
	cap1, cap2 := &bytes.Buffer{}, &bytes.Buffer{}
	lossyWorld(t, 13, harness.KindSublayeredNative, trace.Options{}, cap1)
	lossyWorld(t, 13, harness.KindSublayeredNative, trace.Options{}, cap2)
	if cap1.Len() == 0 {
		t.Fatal("empty capture")
	}
	if !bytes.Equal(cap1.Bytes(), cap2.Bytes()) {
		t.Fatalf("same-seed captures differ: %d vs %d bytes", cap1.Len(), cap2.Len())
	}
}

// TestPcapWellFormed walks the emitted block structure: a section
// header first, then interface descriptions and packet blocks whose
// lengths tile the file exactly.
func TestPcapWellFormed(t *testing.T) {
	var buf bytes.Buffer
	lossyWorld(t, 17, harness.KindMonolithic, trace.Options{}, &buf)
	data := buf.Bytes()
	if len(data) < 12 || binary.LittleEndian.Uint32(data) != 0x0A0D0D0A {
		t.Fatal("missing section header block")
	}
	var idbs, epbs int
	for off := 0; off < len(data); {
		if len(data)-off < 12 {
			t.Fatalf("trailing garbage at %d", off)
		}
		typ := binary.LittleEndian.Uint32(data[off:])
		total := binary.LittleEndian.Uint32(data[off+4:])
		if total%4 != 0 || int(total) > len(data)-off {
			t.Fatalf("bad block length %d at %d", total, off)
		}
		if tail := binary.LittleEndian.Uint32(data[off+int(total)-4:]); tail != total {
			t.Fatalf("length mismatch at %d: %d vs %d", off, total, tail)
		}
		switch typ {
		case 0x00000001:
			idbs++
		case 0x00000006:
			epbs++
		}
		off += int(total)
	}
	if idbs == 0 || epbs == 0 {
		t.Fatalf("want interfaces and packets, got %d IDBs, %d EPBs", idbs, epbs)
	}
}

// TestConcurrentCollectors runs several independently seeded worlds in
// parallel, each with its own collector — the regression test (run
// under -race) that per-simulator tracing shares no hidden state.
func TestConcurrentCollectors(t *testing.T) {
	var wg sync.WaitGroup
	totals := make([]uint64, 4)
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col := lossyWorld(t, 100+int64(i), harness.KindSublayeredNative, trace.Options{}, nil)
			totals[i] = col.Report().Total
		}(i)
	}
	wg.Wait()
	for i, n := range totals {
		if n == 0 {
			t.Errorf("world %d traced no events", i)
		}
	}
}

// TestAbortDumpCapturesOffendingChain forces a user-timeout abort by
// cutting all connectivity mid-transfer and checks that the flight
// recorder snapshots the abort with the offending packet's chain.
func TestAbortDumpCapturesOffendingChain(t *testing.T) {
	for _, kind := range []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic} {
		w := harness.BuildWorld(harness.WorldConfig{
			Seed: 42,
			// Rate-limit the wire so the megabyte transfer is still in
			// flight when the link goes down below.
			Link: netsim.LinkConfig{Delay: time.Millisecond, RateBps: 8 << 20},
			Hops: 2, Client: kind, Server: kind,
		})
		col := trace.NewCollector(trace.Options{})
		w.Sim.SetTracer(col)
		// Cut the wire shortly after the transfer starts; every
		// retransmission dies on the downed link until the sender gives up.
		w.Sim.Schedule(50*time.Millisecond, func() {
			for _, d := range w.Topo.Links {
				d.SetUp(false)
			}
		})
		// The budget outlasts transport.MaxRexmit backed-off RTOs, most
		// of them at the 60s ceiling.
		if _, err := harness.RunTransfer(w, bytes.Repeat([]byte("y"), 1<<20), nil, 15*time.Minute); err != nil {
			t.Fatalf("%v: RunTransfer: %v", kind, err)
		}
		dumps := col.Report().Dumps
		if len(dumps) == 0 {
			t.Fatalf("%v: no flight dump despite forced abort", kind)
		}
		d := dumps[0]
		if d.Reason.Kind != "abort" || d.Reason.Verdict != netsim.VerdictTimeout {
			t.Errorf("%v: dump reason = %s/%s, want abort/timeout", kind, d.Reason.Kind, d.Reason.Verdict)
		}
		if d.Chain == nil || len(d.Chain.Events) == 0 {
			t.Errorf("%v: abort dump carries no offending-packet chain", kind)
		} else if last := d.Chain.Events[len(d.Chain.Events)-1]; last.Verdict == "" {
			// Depending on timing the packet dies at the downed link
			// (down_drop) or, once the routes expire, at the origin router
			// (no_route) — either way the chain must end in a verdict.
			t.Errorf("%v: offending chain ends %s with no terminal verdict", kind, last.Kind)
		}
		if len(d.Recent) == 0 {
			t.Errorf("%v: abort dump has empty recent window", kind)
		}
	}
}
