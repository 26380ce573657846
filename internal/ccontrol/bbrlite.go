package ccontrol

import "time"

func init() {
	Register("bbrlite", func(cfg Config) Controller { return NewBBRLite(cfg.MSS) })
}

// bbrGains is the steady-state pacing-gain cycle: one probing interval
// above the estimated bottleneck rate, one draining interval below it,
// six at the estimate — BBR's ProbeBW phase.
var bbrGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

const (
	// bbrStartupGain paces at 2× the estimate until the pipe is full.
	bbrStartupGain = 2.0
	// bbrCwndGain caps in-flight data at this multiple of the BDP, so
	// the window never blocks the pacing-rate probe.
	bbrCwndGain = 2.0
	// bbrBwRing is the windowed-max filter length for delivery-rate
	// samples (~one ProbeBW cycle of per-round samples).
	bbrBwRing = 8
)

// BBRLite is a delay/bandwidth-based controller in the BBR mold: it
// estimates the bottleneck bandwidth (windowed max of delivery-rate
// samples) and the round-trip propagation delay (min of RTT samples),
// paces at a gain-cycled multiple of the bandwidth estimate, and caps
// in-flight data at a small multiple of the estimated BDP. It is the
// controller the original ack-bytes+loss-kind interface could not
// express: delivery rate needs the AckSample Delivered/Now pair, and
// pacing needs the PacingRate output side.
//
// True to the model, isolated fast-retransmit losses do not shrink
// anything — loss is not the congestion signal, the rate estimate is.
// A retransmission timeout resets the bandwidth filter so the
// controller re-probes from scratch.
type BBRLite struct {
	mss int

	// Bottleneck-bandwidth filter: windowed max over the last ring of
	// per-ack delivery-rate samples (bytes/sec).
	bw    [bbrBwRing]float64
	bwIdx int

	// Round-trip propagation estimate: min RTT observed.
	rtProp time.Duration

	// Delivery-rate sampling state.
	prevDelivered uint64
	prevNow       time.Duration
	havePrev      bool

	// Startup/full-pipe detection and the ProbeBW gain cycle; rounds
	// advance once per rtProp.
	filled    bool
	fullBw    float64
	fullBwCnt int
	cycleIdx  int
	cycleAt   time.Duration
	haveCycle bool
}

// NewBBRLite returns a BBR-style controller for the given MSS.
func NewBBRLite(mss int) *BBRLite {
	return &BBRLite{mss: mss}
}

// Name implements Controller.
func (c *BBRLite) Name() string { return "bbrlite" }

// btlBw is the windowed-max bandwidth estimate (bytes/sec).
func (c *BBRLite) btlBw() float64 {
	m := 0.0
	for _, s := range c.bw {
		if s > m {
			m = s
		}
	}
	return m
}

// Window implements Controller: a small multiple of the estimated BDP,
// floored so the ack clock never stalls; 10 MSS before any estimate
// exists (startup).
func (c *BBRLite) Window() int {
	bdp := c.btlBw() * c.rtProp.Seconds()
	if bdp <= 0 {
		return 10 * c.mss
	}
	return max(int(bbrCwndGain*bdp), 4*c.mss)
}

// PacingRate implements Controller: the gain-cycled bandwidth
// estimate, or 0 (no pacing) before the first delivery-rate sample.
func (c *BBRLite) PacingRate() float64 {
	bw := c.btlBw()
	if bw <= 0 {
		return 0
	}
	if !c.filled {
		return bbrStartupGain * bw
	}
	return bbrGains[c.cycleIdx] * bw
}

// OnAck implements Controller: fold the RTT sample into the rtProp min
// filter, the delivery-rate sample into the bandwidth max filter, and
// advance the gain cycle once per round trip.
func (c *BBRLite) OnAck(s AckSample) {
	if s.RTT > 0 && (c.rtProp == 0 || s.RTT < c.rtProp) {
		c.rtProp = s.RTT
	}
	if c.havePrev && s.Now > c.prevNow && s.Delivered > c.prevDelivered {
		rate := float64(s.Delivered-c.prevDelivered) / (s.Now - c.prevNow).Seconds()
		c.bw[c.bwIdx] = rate
		c.bwIdx = (c.bwIdx + 1) % bbrBwRing
	}
	if s.Delivered > c.prevDelivered || !c.havePrev {
		c.prevDelivered, c.prevNow, c.havePrev = s.Delivered, s.Now, true
	}
	if !c.haveCycle {
		c.cycleAt, c.haveCycle = s.Now, true
		return
	}
	if c.rtProp > 0 && s.Now-c.cycleAt >= c.rtProp {
		c.cycleAt = s.Now
		c.cycleIdx = (c.cycleIdx + 1) % len(bbrGains)
		if !c.filled {
			// Full pipe: bandwidth stopped growing ≥25% for 3 rounds.
			if bw := c.btlBw(); bw > c.fullBw*1.25 {
				c.fullBw = bw
				c.fullBwCnt = 0
			} else if c.fullBwCnt++; c.fullBwCnt >= 3 {
				c.filled = true
			}
		}
	}
}

// OnLoss implements Controller. Fast-retransmit loss is deliberately
// not a congestion signal; a timeout resets the bandwidth filter and
// returns to startup probing.
func (c *BBRLite) OnLoss(e LossEvent) {
	if e.Kind != LossTimeout {
		return
	}
	c.bw = [bbrBwRing]float64{}
	c.havePrev = false
	c.filled = false
	c.fullBw = 0
	c.fullBwCnt = 0
}

// OnECN implements Controller: marks are ignored; the rate model, not
// the mark, is the congestion signal.
func (c *BBRLite) OnECN() {}
