package ccontrol

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// ack is shorthand for a plain acked-bytes sample at a given clock.
func ack(n int, rtt time.Duration, now time.Duration) AckSample {
	return AckSample{Acked: n, RTT: rtt, Now: now}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"bbrlite", "cubic", "fixed", "newreno", "rate-based"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		c, err := New(n, 1000)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if c.Name() != n {
			t.Errorf("New(%s).Name() = %s", n, c.Name())
		}
	}
	if _, err := New("bogus", 1000); err == nil {
		t.Error("unknown name did not error")
	}
	if c, err := New("", 1000); err != nil || c.Name() != DefaultName {
		t.Errorf("empty name: got %v, %v; want default %s", c, err, DefaultName)
	}
}

// TestControllerTable pins the constructor table itself: each name is
// lower-case and appears once, and the table is sorted, so Names (and
// every report that iterates it) has one order.
func TestControllerTable(t *testing.T) {
	for i, c := range controllers {
		if c.name == "" || c.name != strings.ToLower(c.name) {
			t.Errorf("controllers[%d] = %q: want a non-empty lower-case name", i, c.name)
		}
		if i > 0 && c.name <= controllers[i-1].name {
			t.Errorf("controllers[%d] = %q after %q: want unique names in sorted order", i, c.name, controllers[i-1].name)
		}
	}
}

// TestNewRenoPhases is the table-driven tour of NewReno: slow-start
// doubling, CA linear growth, multiplicative decrease, timeout
// collapse.
func TestNewRenoPhases(t *testing.T) {
	const mss = 1000
	cases := []struct {
		name  string
		drive func(c *NewReno)
		check func(t *testing.T, c *NewReno, before int)
	}{
		{"slow-start-doubles", func(c *NewReno) {
			c.OnAck(ack(c.Window(), time.Millisecond, 0)) // a full window acked
		}, func(t *testing.T, c *NewReno, before int) {
			if c.Window() != 2*before {
				t.Errorf("slow start: %d → %d, want doubling", before, c.Window())
			}
		}},
		{"ca-linear", func(c *NewReno) {
			c.OnLoss(LossEvent{Kind: LossFast}) // force into CA at ssthresh
			w := c.Window()
			c.OnAck(ack(w, time.Millisecond, 0)) // one window of acks → +1 MSS
		}, func(t *testing.T, c *NewReno, _ int) {
			if c.Window() != 2*mss+mss {
				t.Errorf("CA growth: window %d, want %d", c.Window(), 3*mss)
			}
		}},
		{"fast-loss-halves", func(c *NewReno) {
			c.OnAck(ack(60*mss, time.Millisecond, 0)) // grow well past 2 MSS
			c.OnLoss(LossEvent{Kind: LossFast})
		}, func(t *testing.T, c *NewReno, _ int) {
			if c.Window() != 31*mss {
				t.Errorf("fast loss: window %d, want half of %d", c.Window(), 62*mss)
			}
		}},
		{"timeout-collapses", func(c *NewReno) {
			c.OnAck(ack(30*mss, time.Millisecond, 0))
			c.OnLoss(LossEvent{Kind: LossTimeout})
		}, func(t *testing.T, c *NewReno, _ int) {
			if c.Window() != mss {
				t.Errorf("timeout: window %d, want 1 MSS", c.Window())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewNewReno(mss)
			before := c.Window()
			tc.drive(c)
			tc.check(t, c, before)
		})
	}
}

// TestNewRenoCutGuard is the regression test for the bytes-acked
// reaction guard (the dead time.Duration lastCut field it replaced):
// a second ECN or fast-loss signal within the same window must not cut
// again; after a full window of acks it must.
func TestNewRenoCutGuard(t *testing.T) {
	const mss = 1000
	c := NewNewReno(mss)
	c.OnAck(ack(62*mss, time.Millisecond, 0)) // slow start caps at ssthresh 64·1024
	grown := c.Window()
	c.OnECN()
	w1 := c.Window() // first cut always allowed
	if w1 != grown/2 {
		t.Fatalf("first ECN cut: window %d, want %d", w1, grown/2)
	}
	// A burst of marks and dupack-loss within the same window: no
	// further cuts.
	c.OnECN()
	c.OnLoss(LossEvent{Kind: LossFast})
	c.OnECN()
	if c.Window() != w1 {
		t.Fatalf("guard failed: window %d after burst, want %d", c.Window(), w1)
	}
	// Ack slightly less than a window: still guarded.
	c.OnAck(ack(w1-1, time.Millisecond, 0))
	c.OnECN()
	if c.Window() < w1 {
		t.Fatalf("guard released early: window %d", c.Window())
	}
	// Complete the window: the next mark cuts again.
	c.OnAck(ack(1, time.Millisecond, 0))
	before := c.Window()
	c.OnECN()
	if c.Window() >= before {
		t.Fatalf("guard never released: window %d, want < %d", c.Window(), before)
	}
	// Timeouts bypass the guard entirely.
	c2 := NewNewReno(mss)
	c2.OnAck(ack(20*mss, time.Millisecond, 0))
	c2.OnLoss(LossEvent{Kind: LossFast})
	c2.OnLoss(LossEvent{Kind: LossTimeout})
	if c2.Window() != mss {
		t.Fatalf("timeout was guarded: window %d, want 1 MSS", c2.Window())
	}
}

// TestCubicRegions checks the shape of the growth function: concave
// (decelerating) below the wMax plateau, convex (accelerating) beyond
// it, and a β=0.7 multiplicative decrease.
func TestCubicRegions(t *testing.T) {
	const mss = 1000
	c := NewCubic(mss)
	c.OnAck(ack(100*mss, time.Millisecond, 0)) // slow start toward ssthresh
	grown := c.Window()
	if grown != 64*1024 {
		t.Fatalf("slow start capped at %d, want ssthresh", grown)
	}
	c.OnLoss(LossEvent{Kind: LossFast})
	afterCut := c.Window()
	if want := int(float64(grown) * 0.7); afterCut != want {
		t.Fatalf("β decrease: %d → %d, want %d", grown, afterCut, want)
	}

	// Drive congestion avoidance with one ack per 10ms of virtual time
	// and record the window trajectory. K ≈ 3.7s here, so 8s of acks
	// dwell on both sides of the plateau.
	now := time.Duration(0)
	var windows []int
	for i := 0; i < 800; i++ {
		now += 10 * time.Millisecond
		c.OnAck(ack(2*mss, 0, now))
		windows = append(windows, c.Window())
	}
	// Find where the trajectory crosses the old plateau.
	cross := -1
	for i, w := range windows {
		if float64(w) >= c.wMax {
			cross = i
			break
		}
	}
	if cross <= 2 || cross >= len(windows)-20 {
		t.Fatalf("trajectory never dwelt on both sides of wMax (cross=%d)", cross)
	}
	// Concave region: growth rate shrinks approaching the plateau.
	early := windows[cross/4] - windows[0]
	late := windows[cross-1] - windows[cross-1-cross/4]
	if late >= early {
		t.Errorf("concave region not decelerating: early +%d vs late +%d", early, late)
	}
	// Convex region: growth rate increases past the plateau.
	span := (len(windows) - cross) / 3
	post1 := windows[cross+span] - windows[cross]
	post2 := windows[len(windows)-1] - windows[len(windows)-1-span]
	if post2 <= post1 {
		t.Errorf("convex region not accelerating: first +%d vs last +%d", post1, post2)
	}
}

// TestBBRLiteConvergence feeds a synthetic steady link (1 MB/s
// bottleneck, 10 ms propagation) and expects the estimator to converge:
// window ≈ cwndGain×BDP, pacing rate within the gain cycle of the
// bottleneck rate.
func TestBBRLiteConvergence(t *testing.T) {
	const mss = 1000
	const rate = 1_000_000.0 // bytes/sec
	const rtt = 10 * time.Millisecond
	c := NewBBRLite(mss)
	now := time.Duration(0)
	delivered := uint64(0)
	// One MSS delivered per MSS/rate seconds — a saturated bottleneck.
	step := time.Duration(float64(mss) / rate * float64(time.Second))
	for i := 0; i < 500; i++ {
		now += step
		delivered += mss
		c.OnAck(AckSample{Acked: mss, RTT: rtt, Delivered: delivered, InFlight: 10 * mss, Now: now})
	}
	bw := c.btlBw()
	if bw < 0.9*rate || bw > 1.1*rate {
		t.Fatalf("btlBw = %.0f, want ≈ %.0f", bw, rate)
	}
	if c.rtProp != rtt {
		t.Fatalf("rtProp = %v, want %v", c.rtProp, rtt)
	}
	bdp := rate * rtt.Seconds()
	w := float64(c.Window())
	if w < 1.5*bdp || w > 2.5*bdp {
		t.Fatalf("window %d, want ≈ %.0f (2×BDP %.0f)", c.Window(), 2*bdp, bdp)
	}
	pr := c.PacingRate()
	if pr < 0.7*rate || pr > 2.1*rate {
		t.Fatalf("pacing rate %.0f outside gain cycle of %.0f", pr, rate)
	}
	if !c.filled {
		t.Error("steady link never detected as full pipe")
	}
	// A timeout resets the estimate; the controller re-probes.
	c.OnLoss(LossEvent{Kind: LossTimeout})
	if c.btlBw() != 0 || c.PacingRate() != 0 {
		t.Error("timeout did not reset the bandwidth filter")
	}
	if c.Window() != 10*mss {
		t.Errorf("post-reset window %d, want startup 10 MSS", c.Window())
	}
}

// TestWindowPositiveProperty is the cross-controller property test:
// every controller in the table keeps Window() > 0 (and PacingRate() ≥ 0)
// under arbitrary signal sequences.
func TestWindowPositiveProperty(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := MustNew(name, 1+rng.Intn(2000))
				now := time.Duration(0)
				delivered := uint64(0)
				for i := 0; i < 500; i++ {
					now += time.Duration(rng.Intn(int(50 * time.Millisecond)))
					switch rng.Intn(10) {
					case 0:
						c.OnLoss(LossEvent{Kind: LossFast})
					case 1:
						c.OnLoss(LossEvent{Kind: LossTimeout})
					case 2:
						c.OnECN()
					default:
						n := rng.Intn(64 * 1024)
						delivered += uint64(n)
						c.OnAck(AckSample{
							Acked:     n,
							RTT:       time.Duration(rng.Intn(int(200 * time.Millisecond))),
							Delivered: delivered,
							InFlight:  rng.Intn(128 * 1024),
							Now:       now,
						})
					}
					if w := c.Window(); w <= 0 {
						t.Fatalf("seed %d step %d: Window() = %d", seed, i, w)
					}
					if pr := c.PacingRate(); pr < 0 {
						t.Fatalf("seed %d step %d: PacingRate() = %f", seed, i, pr)
					}
				}
			}
		})
	}
}

// signals decodes fuzz bytes into a signal sequence, three bytes a
// signal: the kind, then two bytes that size an acknowledgement (bytes
// acked, RTT and clock advance are all drawn from them). It calls
// step after each signal with the controller's answer.
func signals(c Controller, in []byte, step func(window int, rate float64)) {
	now, delivered := time.Duration(0), uint64(0)
	for ; len(in) >= 3; in = in[3:] {
		v := int(in[1])<<8 | int(in[2])
		now += time.Duration(v%97) * time.Millisecond
		switch in[0] % 8 {
		case 0:
			c.OnLoss(LossEvent{Kind: LossFast})
		case 1:
			c.OnLoss(LossEvent{Kind: LossTimeout})
		case 2:
			c.OnECN()
		default:
			n := v % 3000
			delivered += uint64(n)
			c.OnAck(AckSample{
				Acked:     n,
				RTT:       time.Duration(v%211) * time.Millisecond,
				Delivered: delivered,
				InFlight:  v % 7000,
				Now:       now,
			})
		}
		step(c.Window(), c.PacingRate())
	}
}

// FuzzControllerReuse: a controller that served one connection and
// was Reset answers any signal sequence exactly as a fresh one does,
// for every controller in the table — what lets a stack hand one
// connection's controller to the next.
func FuzzControllerReuse(f *testing.F) {
	f.Add([]byte{3, 5, 220, 3, 5, 220, 0, 0, 0, 3, 9, 9}, []byte{3, 1, 0, 1, 0, 0, 3, 2, 0})
	f.Add([]byte{1, 0, 0, 3, 255, 255, 3, 255, 255, 2, 0, 0}, []byte{3, 0, 40, 3, 0, 80, 3, 0, 120})
	f.Add(make([]byte, 60), []byte{})
	f.Fuzz(func(t *testing.T, before, after []byte) {
		for _, name := range Names() {
			reused, fresh := MustNew(name, 1000), MustNew(name, 1000)
			signals(reused, before, func(int, float64) {})
			reused.Reset()
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("%s: reset %+v, fresh %+v", name, reused, fresh)
			}
			var got, want []float64
			signals(reused, after, func(w int, r float64) { got = append(got, float64(w), r) })
			signals(fresh, after, func(w int, r float64) { want = append(want, float64(w), r) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: reused answered %v, fresh %v", name, got, want)
			}
		}
	})
}
