package harness

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/trace"
)

// lossyLink is a moderately impaired path: enough loss and reordering
// to force retransmission machinery on every backend, not enough to
// stall a bidirectional transfer.
var lossyLink = netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.02, ReorderProb: 0.02}

// runBidirectional moves c2s and s2c across a fresh world on the
// given backend and returns the transfer result.
func runBidirectional(t *testing.T, backend string, kind Kind, c2s, s2c []byte) *TransferResult {
	t.Helper()
	w := BuildWorld(WorldConfig{Backend: backend, Seed: 5, Link: lossyLink, Client: kind, Server: kind})
	defer w.Close()
	res, err := RunTransfer(w, c2s, s2c, 30*time.Second) // virtual on sim, wall on chan
	if err != nil {
		t.Fatalf("%s backend: RunTransfer: %v", backend, err)
	}
	return res
}

// TestCrossBackendDifferential is the backend analogue of the E14
// cross-stack oracle: the same seed and payloads through the same
// stack on the simulator and on the channel backend must produce
// byte-identical delivered streams in both directions, with zero
// watchdog violations — the backend under the stack is fungible.
func TestCrossBackendDifferential(t *testing.T) {
	c2s := make([]byte, 64*1024)
	s2c := make([]byte, 32*1024)
	rand.New(rand.NewSource(5)).Read(c2s)
	rand.New(rand.NewSource(6)).Read(s2c)

	for _, kind := range []Kind{KindSublayeredNative, KindMonolithic} {
		got := map[string]*TransferResult{}
		for _, backend := range []string{BackendSim, BackendChan} {
			res := runBidirectional(t, backend, kind, c2s, s2c)
			wd := faults.NewWatchdog()
			wd.CheckComplete(backend+"/c2s", c2s, res.ServerGot)
			wd.CheckComplete(backend+"/s2c", s2c, res.ClientGot)
			if v := wd.Violations(); len(v) != 0 {
				t.Fatalf("%s/%s: violations: %v", kind, backend, v)
			}
			if !res.ServerEOF || !res.ClientEOF {
				t.Fatalf("%s/%s: transfer did not finish (serverEOF=%v clientEOF=%v)",
					kind, backend, res.ServerEOF, res.ClientEOF)
			}
			got[backend] = res
		}
		if !bytes.Equal(got[BackendSim].ServerGot, got[BackendChan].ServerGot) {
			t.Fatalf("%s: c2s stream differs between sim and chan backends", kind)
		}
		if !bytes.Equal(got[BackendSim].ClientGot, got[BackendChan].ClientGot) {
			t.Fatalf("%s: s2c stream differs between sim and chan backends", kind)
		}
	}
}

// TestTransferOverUDPBackend pushes a bidirectional transfer through
// real loopback sockets, impairments live.
func TestTransferOverUDPBackend(t *testing.T) {
	if !UDPAvailable() {
		t.Skip("loopback UDP sockets unavailable")
	}
	c2s := make([]byte, 48*1024)
	s2c := make([]byte, 16*1024)
	rand.New(rand.NewSource(9)).Read(c2s)
	rand.New(rand.NewSource(10)).Read(s2c)
	res := runBidirectional(t, BackendUDP, KindSublayeredNative, c2s, s2c)
	if !bytes.Equal(res.ServerGot, c2s) || !bytes.Equal(res.ClientGot, s2c) {
		t.Fatalf("udp transfer corrupted: server %d/%d bytes, client %d/%d bytes",
			len(res.ServerGot), len(c2s), len(res.ClientGot), len(s2c))
	}
}

// TestTracingOnChanBackend pins the observability-identity half of
// the Backend contract: the causal-trace collector and the pcapng
// capture path work unchanged on a real-time backend.
func TestTracingOnChanBackend(t *testing.T) {
	w := BuildWorld(WorldConfig{Backend: BackendChan, Seed: 7, Link: netsim.LinkConfig{Delay: time.Millisecond}})
	defer w.Close()
	col := trace.NewCollector(trace.Options{RingCap: 2048, DoneCap: 256})
	var capture bytes.Buffer
	pw, err := pcap.NewWriter(&capture)
	if err != nil {
		t.Fatal(err)
	}
	col.CaptureTo(pw)
	w.Exec(func() { w.Sim.SetTracer(col) })
	res, err := RunTransfer(w, []byte("traced payload"), nil, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.ServerGot) != "traced payload" {
		t.Fatalf("transfer failed under tracing: %q", res.ServerGot)
	}
	w.Exec(func() {
		if col.Report().Total == 0 {
			t.Error("collector saw no trace events on the chan backend")
		}
	})
	if capture.Len() == 0 {
		t.Error("pcapng capture is empty on the chan backend")
	}
}

// TestNewBuilderDefaults pins the single construction path: a zero
// WorldConfig builds a working sim world with the documented defaults.
func TestNewBuilderDefaults(t *testing.T) {
	w := BuildWorld(WorldConfig{})
	defer w.Close()
	if w.Sim.Name() != BackendSim || Realtime(w.Backend) {
		t.Fatalf("default world misbuilt: backend=%q realtime=%v", w.Sim.Name(), Realtime(w.Backend))
	}
	if len(w.Topo.Routers) != 4 {
		t.Fatalf("default hops = %d, want 4", len(w.Topo.Routers))
	}
	res, err := RunTransfer(w, []byte("ping"), []byte("pong"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.ServerGot) != "ping" || string(res.ClientGot) != "pong" {
		t.Fatalf("echo failed: %q / %q", res.ServerGot, res.ClientGot)
	}
}

// TestEventCountersBalance: on every backend the netsim/events counters
// account for every event ever scheduled — it ran, was cancelled, or is
// still pending — including the wall-clock backends' link deliveries
// and socket writes, which go through the same event store.
func TestEventCountersBalance(t *testing.T) {
	for _, backend := range []string{BackendSim, "sharded:2", BackendChan, BackendUDP} {
		if backend == BackendUDP && !UDPAvailable() {
			t.Log("loopback UDP sockets unavailable; udp skipped")
			continue
		}
		reg := metrics.New()
		w := BuildWorld(WorldConfig{Backend: backend, Seed: 3, Hops: 3, Link: netsim.LinkConfig{Delay: time.Millisecond}, Metrics: reg})
		w.Sim.RunFor(300 * time.Millisecond)
		w.Exec(func() {
			ev := map[string]uint64{}
			for _, s := range reg.Snapshot().Samples {
				switch s.Name {
				case "netsim/events/scheduled", "netsim/events/executed", "netsim/events/cancelled":
					ev[s.Name[len("netsim/events/"):]] = uint64(s.Value)
				}
			}
			pending := uint64(w.Sim.(interface{ Pending() int }).Pending())
			if ev["executed"] == 0 || ev["scheduled"] != ev["executed"]+ev["cancelled"]+pending {
				t.Errorf("%s: scheduled=%d executed=%d cancelled=%d pending=%d do not balance",
					backend, ev["scheduled"], ev["executed"], ev["cancelled"], pending)
			}
		})
		w.Close()
	}
}

// TestCloseLeavesNoGoroutines: closing a wall-clock cluster stops its
// dispatcher and socket readers — the goroutine count returns to what
// it was before the build — and a timer armed afterwards never runs.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, backend := range []string{BackendChan, BackendUDP} {
		if backend == BackendUDP && !UDPAvailable() {
			t.Log("loopback UDP sockets unavailable; udp skipped")
			continue
		}
		before := runtime.NumGoroutine()
		cl := BuildCluster(ClusterConfig{Backend: backend, Seed: 1, Nodes: 4})
		cl.Close()
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines 1 s after Close, %d before the build", backend, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		ran := false
		cl.Exec(func() { cl.Sim.Schedule(0, func() { ran = true }) })
		time.Sleep(20 * time.Millisecond)
		cl.Exec(func() {
			if ran {
				t.Errorf("%s: a timer armed after Close ran", backend)
			}
		})
	}
}
