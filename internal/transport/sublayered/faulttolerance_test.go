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
// timeout aborts the connection with ErrTimeout once more than
// transport.MaxRexmit RTOs in a row went unanswered, and whatever was
// delivered is an exact prefix of the sent stream.
func TestRDUserTimeoutUnderPartition(t *testing.T) {
	w := newWorld(t, 21, rateLink(), Config{}, Config{})
	data := randBytes(256*1024, 21)
	w.sim.Schedule(100*time.Millisecond, func() { w.topo.CutLink(2, 3) })
	// Backed-off RTOs reach the 60s ceiling: thirteen of them take
	// about six minutes.
	res := runTransfer(t, w, data, nil, 15*time.Minute)

	if !errors.Is(res.clientErr, ErrTimeout) {
		t.Fatalf("clientErr = %v, want ErrTimeout", res.clientErr)
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

// TestTimerCMExhaustionUnderPartition (satellite): with the path fully
// cut, TimerCM's FIN bootstrap retransmission must exhaust cmMaxAttempts
// and die with ErrTimeout — and the attempts past cmMaxBackoffShift
// must wait the capped interval, not keep doubling.
func TestTimerCMExhaustionUnderPartition(t *testing.T) {
	if cmMaxAttempts <= cmMaxBackoffShift+1 {
		t.Fatalf("%d attempts never reach the 1<<%d backoff cap", cmMaxAttempts, cmMaxBackoffShift)
	}
	reg := NewIncarnationRegistry()
	ccfg := Config{NewCM: func() ConnManager { return NewTimerCM(reg) }}
	w := newWorld(t, 24, cleanLink(), ccfg, Config{})
	w.topo.CutLink(2, 3) // fully partitioned before the open

	cc, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
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
	if !errors.Is(closedErr, ErrTimeout) && !errors.Is(closedErr, ErrReset) {
		t.Fatalf("closed with %v, want ErrTimeout or ErrReset", closedErr)
	}
	// The wait after attempt n+1 is cmRexmitInterval·2^min(n, cmMaxBackoffShift).
	var want time.Duration
	for n := 0; n < cmMaxAttempts; n++ {
		want += cmRexmitInterval * time.Duration(1<<min(n, cmMaxBackoffShift))
	}
	if elapsed := time.Duration(closedAt - start); elapsed != want {
		t.Errorf("exhaustion took %v, want %v", elapsed, want)
	}
}
