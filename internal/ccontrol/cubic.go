package ccontrol

import (
	"math"
	"time"
)

func init() {
	Register("cubic", func(cfg Config) Controller { return NewCubic(cfg.MSS) })
}

// Cubic tuning constants (RFC 8312 defaults): β is the multiplicative
// decrease factor, cubicC scales the cubic growth function W(t) =
// C·(t−K)³ + Wmax, both in MSS units with t in seconds.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// Cubic is the RFC 8312 window-growth function: after a loss at window
// Wmax, the window first grows concavely back toward Wmax (fast far
// below it, flattening at the plateau), then convexly beyond it (probe
// slowly near the old ceiling, accelerate once past). Growth depends
// on elapsed time rather than RTT, so Cubic holds its aggressiveness
// on long-RTT paths where Reno's once-per-window growth stalls.
//
// The implementation needs exactly the signal vocabulary AckSample
// added: a clock (Now) to evaluate W(t), and acked bytes to scale the
// per-ack approach toward the target. No RTT or delivery accounting.
type Cubic struct {
	mss      int
	cwnd     int
	ssthresh int
	// wMax is the window (bytes) at the last reduction — the plateau.
	wMax float64
	// epoch is the Now timestamp of the first ack after a reduction;
	// negative when no epoch is active. k is the time (seconds) for
	// W(t) to return to wMax.
	epoch time.Duration
	k     float64
	// Per-window reaction guard, as in NewReno.
	ackedSinceCut int
	cutWindow     int
}

// NewCubic returns a CUBIC controller for the given MSS.
func NewCubic(mss int) *Cubic {
	return &Cubic{mss: mss, cwnd: 2 * mss, ssthresh: 64 * 1024, epoch: -1}
}

// Name implements Controller.
func (c *Cubic) Name() string { return "cubic" }

// Window implements Controller.
func (c *Cubic) Window() int { return c.cwnd }

// PacingRate implements Controller: CUBIC here is window-clocked.
func (c *Cubic) PacingRate() float64 { return 0 }

// OnAck implements Controller.
func (c *Cubic) OnAck(s AckSample) {
	if s.Acked <= 0 {
		return
	}
	c.ackedSinceCut += s.Acked
	if c.cwnd < c.ssthresh {
		c.cwnd += s.Acked
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	if c.epoch < 0 {
		// First ack of a new congestion-avoidance epoch.
		c.epoch = s.Now
		if c.wMax > float64(c.cwnd) {
			c.k = math.Cbrt((c.wMax - float64(c.cwnd)) / float64(c.mss) / cubicC)
		} else {
			// Above the old plateau already (or no loss yet): grow
			// convexly from here.
			c.wMax = float64(c.cwnd)
			c.k = 0
		}
	}
	t := (s.Now - c.epoch).Seconds()
	d := t - c.k
	target := c.wMax + cubicC*d*d*d*float64(c.mss)
	if target > float64(c.cwnd) {
		// Spread the approach to the target over roughly one window of
		// acks: each acked byte contributes its share of the gap.
		grow := (target - float64(c.cwnd)) * float64(s.Acked) / float64(c.cwnd)
		inc := int(grow)
		if inc < 1 {
			inc = 1
		}
		if inc > c.mss {
			inc = c.mss // at most one MSS per ack, as in RFC 8312 §4.1
		}
		c.cwnd += inc
	}
}

// OnLoss implements Controller.
func (c *Cubic) OnLoss(e LossEvent) {
	switch e.Kind {
	case LossFast:
		if c.ackedSinceCut < c.cutWindow {
			return
		}
		c.wMax = float64(c.cwnd)
		c.cwnd = max(int(float64(c.cwnd)*cubicBeta), 2*c.mss)
		c.ssthresh = c.cwnd
	case LossTimeout:
		c.wMax = float64(c.cwnd)
		c.ssthresh = max(int(float64(c.cwnd)*cubicBeta), 2*c.mss)
		c.cwnd = c.mss
	}
	c.epoch = -1
	c.cutWindow = c.cwnd
	c.ackedSinceCut = 0
}

// OnECN implements Controller: a mark reacts like a fast loss, behind
// the same per-window guard.
func (c *Cubic) OnECN() { c.OnLoss(LossEvent{Kind: LossFast}) }
