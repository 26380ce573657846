package netsim

import (
	"testing"
	"time"
)

// waitFor polls cond under the clock lock until it holds or the wall
// deadline passes.
func waitFor(t *testing.T, clk *RTClock, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := false
		clk.Exec(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRTClockTimerFires(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	fired := false
	clk.Exec(func() { clk.Schedule(5*time.Millisecond, func() { fired = true }) })
	waitFor(t, clk, "timer to fire", func() bool { return fired })
	if clk.Steps() != 1 {
		t.Fatalf("Steps() = %d, want 1", clk.Steps())
	}
}

func TestRTClockTimerStop(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	fired := false
	clk.Exec(func() {
		tm := clk.Schedule(30*time.Millisecond, func() { fired = true })
		if !tm.Active() {
			t.Error("timer should be active before firing")
		}
		tm.Stop()
		if tm.Active() {
			t.Error("timer should be inactive after Stop")
		}
	})
	time.Sleep(60 * time.Millisecond)
	clk.Exec(func() {
		if fired {
			t.Error("stopped timer fired")
		}
	})
	if clk.Steps() != 0 {
		t.Fatalf("Steps() = %d, want 0 after cancel", clk.Steps())
	}
}

func TestRTClockEveryRepeats(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	ticks := 0
	var rep *Repeater
	clk.Exec(func() { rep = clk.Every(2*time.Millisecond, func() { ticks++ }) })
	waitFor(t, clk, "three repeater ticks", func() bool { return ticks >= 3 })
	var after int
	clk.Exec(func() {
		rep.Stop()
		after = ticks
	})
	time.Sleep(20 * time.Millisecond)
	clk.Exec(func() {
		if ticks != after {
			t.Errorf("repeater kept ticking after Stop: %d -> %d", after, ticks)
		}
	})
}

func TestRTClockCloseStopsCallbacks(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	fired := false
	clk.Exec(func() { clk.Schedule(10*time.Millisecond, func() { fired = true }) })
	if err := clk.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	clk.Exec(func() {
		if fired {
			t.Error("timer fired after Close")
		}
	})
}

func TestRTClockNowAdvances(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	t0 := clk.Now()
	time.Sleep(5 * time.Millisecond)
	if clk.Now() <= t0 {
		t.Fatalf("wall clock did not advance: %v -> %v", t0, clk.Now())
	}
}

// TestCloneBufNoAlias pins the centralized duplication contract: a
// clone never aliases the source buffer.
func TestCloneBufNoAlias(t *testing.T) {
	src := []byte("original payload")
	cp := CloneBuf(src)
	if string(cp) != string(src) {
		t.Fatalf("clone mismatch: %q != %q", cp, src)
	}
	src[0] = 'X'
	if cp[0] == 'X' {
		t.Fatal("CloneBuf aliases the source buffer")
	}
}

// TestRTClockWakesForEarlierTimer: a timer armed from Exec while the
// dispatcher sleeps toward a 10 s deadline fires on time, not after it.
func TestRTClockWakesForEarlierTimer(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	clk.Exec(func() { clk.Schedule(10*time.Second, func() {}) })
	time.Sleep(20 * time.Millisecond) // the dispatcher is asleep now
	fired := make(chan struct{})
	start := time.Now()
	clk.Exec(func() { clk.Schedule(time.Millisecond, func() { close(fired) }) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("an earlier timer armed from outside did not wake the dispatcher")
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("timer fired after %v", d)
	}
}

// TestRTClockStopRacesFiring: Stop against a due firing — exactly one
// of them wins, every time. Run it under -race.
func TestRTClockStopRacesFiring(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	for i := 0; i < 200; i++ {
		fired := false
		var tm Timer
		clk.Exec(func() { tm = clk.ScheduleTimer(time.Duration(i%4)*50*time.Microsecond, func() { fired = true }) })
		time.Sleep(time.Duration(i%3) * 50 * time.Microsecond)
		var stopped bool
		clk.Exec(func() { stopped = tm.Stop() })
		time.Sleep(300 * time.Microsecond)
		clk.Exec(func() {
			if fired == stopped {
				t.Fatalf("round %d: fired=%v stopped=%v, want exactly one", i, fired, stopped)
			}
		})
	}
}

// TestRTClockPostAfterClose: once Close returns the dispatcher is gone
// and a post files nothing, so nothing runs and nothing is pending.
func TestRTClockPostAfterClose(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	clk.Close()
	ran := false
	clk.Exec(func() {
		tm := clk.Schedule(0, func() { ran = true })
		if tm.Active() {
			t.Error("a timer armed after Close is active")
		}
	})
	time.Sleep(10 * time.Millisecond)
	clk.Exec(func() {
		if ran || clk.Pending() != 0 {
			t.Errorf("after Close: ran=%v pending=%d", ran, clk.Pending())
		}
	})
}
