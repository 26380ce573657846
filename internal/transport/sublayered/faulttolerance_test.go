package sublayered

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport"
)

// rateLink is a clean but rate-limited link so transfers take long
// enough to cut mid-flight.
func rateLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 8_000_000}
}

// TestRDUserTimeoutUnderPartition: a permanent partition mid-transfer
// must not leave the sender retransmitting forever — the RD user
// timeout aborts the connection, CLOSED with transport.ErrTimeout, once
// more than transport.MaxRexmit RTOs in a row went unanswered, and
// whatever was delivered is an exact prefix of the sent stream.
func TestRDUserTimeoutUnderPartition(t *testing.T) {
	w := newWorld(t, 21, rateLink(), Config{}, Config{})
	data := randBytes(256*1024, 21)
	w.sim.Schedule(100*time.Millisecond, func() { w.topo.CutLink(2, 3) })
	// Backed-off RTOs reach the 60s ceiling: thirteen of them take
	// about six minutes.
	res := runTransfer(t, w, data, nil, 15*time.Minute)

	if !errors.Is(res.clientErr, transport.ErrTimeout) {
		t.Fatalf("clientErr = %v, want transport.ErrTimeout", res.clientErr)
	}
	if st := res.clientConn.State(); st != transport.StateClosed {
		t.Errorf("state %s after the user timeout, want CLOSED", st)
	}
	st := res.clientConn.rd.Stats()
	if st["aborts"] != 1 {
		t.Errorf("rd aborts = %d, want 1", st["aborts"])
	}
	if st["timeouts"] < transport.MaxRexmit+1 {
		t.Errorf("aborted after %d timeouts, want at least %d", st["timeouts"], transport.MaxRexmit+1)
	}
	if !bytes.HasPrefix(data, res.serverGot) {
		t.Error("delivered bytes are not a prefix of the sent stream")
	}
	if len(res.serverGot) == 0 {
		t.Error("nothing delivered before the cut — cut came too early to test mid-flight abort")
	}
	if n := len(w.client.dm.conns); n != 0 {
		t.Errorf("client DM still tracks %d conns after abort", n)
	}
}

// TestRDUserTimeoutResetByProgress: an outage shorter than the user
// timeout must not kill the connection — ack progress after the heal
// resets the RTO streak and the transfer completes.
func TestRDUserTimeoutResetByProgress(t *testing.T) {
	w := newWorld(t, 23, rateLink(), Config{}, Config{})
	data := randBytes(128*1024, 23)
	// Twenty seconds of backed-off RTOs is about half the bound.
	w.sim.Schedule(100*time.Millisecond, func() { w.topo.CutLink(2, 3) })
	w.sim.Schedule(20*time.Second, func() { w.topo.Links[[2]network.Addr{2, 3}].SetUp(true) })
	res := runTransfer(t, w, data, nil, 120*time.Second)

	if res.clientErr != nil {
		t.Fatalf("clientErr = %v after transient cut, want nil", res.clientErr)
	}
	if !bytes.Equal(res.serverGot, data) {
		t.Fatalf("transfer incomplete after heal: got %d of %d bytes", len(res.serverGot), len(data))
	}
	st := res.clientConn.rd.Stats()
	if st["aborts"] != 0 {
		t.Errorf("aborts = %d, want 0", st["aborts"])
	}
	if st["timeouts"] < transport.MaxRexmit/2 {
		t.Errorf("timeouts = %d: the outage never ran up a streak", st["timeouts"])
	}
	if res.clientConn.rd.rtoStreak != 0 {
		t.Errorf("rtoStreak = %d after the transfer completed, want 0", res.clientConn.rd.rtoStreak)
	}
}

// TestTimerCMExhaustionUnderPartition: with the path cut once the
// connection is open, the FIN's bootstrap retransmission must exhaust
// cmMaxAttempts and end the connection in CLOSED with
// transport.ErrTimeout under either scheme, since both tear down
// through cmCore — and the
// attempts past cmMaxBackoffShift must wait the capped interval, not
// keep doubling.
func TestTimerCMExhaustionUnderPartition(t *testing.T) {
	if cmMaxAttempts <= cmMaxBackoffShift+1 {
		t.Fatalf("%d attempts never reach the 1<<%d backoff cap", cmMaxAttempts, cmMaxBackoffShift)
	}
	for _, name := range []string{CMHandshake, CMWatson} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{CM: name}
			w := newWorld(t, 24, cleanLink(), cfg, cfg)
			if _, err := w.server.Listen(80); err != nil {
				t.Fatal(err)
			}
			cc, err := w.client.Dial(4, 80)
			if err != nil {
				t.Fatal(err)
			}
			w.sim.RunFor(time.Second)
			if st := cc.State(); st != transport.StateEstablished {
				t.Fatalf("state %s before the cut, want ESTABLISHED", st)
			}
			w.topo.CutLink(2, 3)

			var closedErr error
			var closedAt netsim.Time
			closed := false
			cc.OnClosed = func(err error) { closedErr, closedAt, closed = err, w.sim.Now(), true }
			start := w.sim.Now()
			cc.Close() // no data: only the FIN needs (and never gets) an ack

			w.sim.RunFor(5 * time.Minute)
			if !closed {
				t.Fatal("connection still alive after 5m of FIN retransmission")
			}
			if !errors.Is(closedErr, transport.ErrTimeout) {
				t.Fatalf("closed with %v, want transport.ErrTimeout", closedErr)
			}
			if st := cc.State(); st != transport.StateClosed {
				t.Errorf("state %s after exhaustion, want CLOSED", st)
			}
			// The wait after attempt n+1 is cmRexmitInterval·2^min(n, cmMaxBackoffShift).
			var want time.Duration
			for n := 0; n < cmMaxAttempts; n++ {
				want += cmRexmitInterval * time.Duration(1<<min(n, cmMaxBackoffShift))
			}
			if elapsed := time.Duration(closedAt - start); elapsed != want {
				t.Errorf("exhaustion took %v, want %v", elapsed, want)
			}
		})
	}
}
