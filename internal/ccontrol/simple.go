package ccontrol

import "time"

// The two degenerate controllers: a constant window (honest-interface
// baseline for the E8 swap experiment) and the rate-AIMD scheme the
// paper suggests could seamlessly replace window-based congestion
// control.

func init() {
	// "fixed" is E8's baseline: a 16 KiB window whatever the MSS.
	Register("fixed", func(Config) Controller { return NewFixedWindow(16 << 10) })
	Register("rate-based", func(cfg Config) Controller { return NewRateBased(cfg.MSS) })
}

// FixedWindow is degenerate congestion control: a constant window. It
// exists to show the interface is honest (the stack runs, just without
// adaptation) and as the baseline in the E8 swap experiment.
type FixedWindow struct {
	bytes int
}

// NewFixedWindow returns a fixed window of n bytes.
func NewFixedWindow(n int) *FixedWindow { return &FixedWindow{bytes: n} }

// Name implements Controller.
func (c *FixedWindow) Name() string { return "fixed" }

// Window implements Controller.
func (c *FixedWindow) Window() int { return c.bytes }

// PacingRate implements Controller.
func (c *FixedWindow) PacingRate() float64 { return 0 }

// OnAck implements Controller.
func (c *FixedWindow) OnAck(AckSample) {}

// OnLoss implements Controller.
func (c *FixedWindow) OnLoss(LossEvent) {}

// OnECN implements Controller.
func (c *FixedWindow) OnECN() {}

// RateBased is an AIMD on *rate* rather than window — the "rate-based
// protocol" the paper suggests could seamlessly replace window-based
// congestion control (§3, T3 discussion). The permitted window is the
// current rate times the smoothed RTT (bandwidth-delay product).
type RateBased struct {
	mss      int
	rate     float64 // bytes/sec
	minRate  float64
	srtt     time.Duration
	additive float64 // bytes/sec added per ack batch
}

// NewRateBased returns rate-based congestion control.
func NewRateBased(mss int) *RateBased {
	start := float64(16 * mss)
	return &RateBased{mss: mss, rate: start * 4, minRate: start, additive: float64(2 * mss)}
}

// Name implements Controller.
func (c *RateBased) Name() string { return "rate-based" }

// Window implements Controller.
func (c *RateBased) Window() int {
	rtt := c.srtt
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
	}
	w := int(c.rate * rtt.Seconds())
	if w < 2*c.mss {
		w = 2 * c.mss
	}
	return w
}

// PacingRate implements Controller.
func (c *RateBased) PacingRate() float64 { return 0 }

// OnAck implements Controller.
func (c *RateBased) OnAck(s AckSample) {
	if s.RTT > 0 {
		if c.srtt == 0 {
			c.srtt = s.RTT
		} else {
			c.srtt = (7*c.srtt + s.RTT) / 8
		}
	}
	if s.Acked > 0 {
		c.rate += c.additive * float64(s.Acked) / float64(max(c.Window(), c.mss))
	}
}

// OnLoss implements Controller.
func (c *RateBased) OnLoss(e LossEvent) {
	factor := 0.7
	if e.Kind == LossTimeout {
		factor = 0.5
	}
	c.rate *= factor
	if c.rate < c.minRate {
		c.rate = c.minRate
	}
}

// OnECN implements Controller.
func (c *RateBased) OnECN() { c.OnLoss(LossEvent{Kind: LossFast}) }
