package ccontrol

// NewReno is slow start + congestion avoidance + multiplicative
// decrease on loss (fast recovery simplified to a half-window cut).
type NewReno struct {
	mss      int
	cwnd     int
	ssthresh int
	// accumulated bytes toward the next +1 MSS in congestion avoidance
	caAccum int
	// Per-window reaction guard: a fast-loss or ECN cut is honored only
	// once a full window of bytes (the window at the previous cut) has
	// been acknowledged since that cut. ECN marks and duplicate-ack
	// bursts arriving within one congested window then cost one halving,
	// not one per signal — and the guard is a pure function of the byte
	// stream, so it is deterministic under simulation. (An earlier
	// revision declared a time.Duration lastCut for this purpose and
	// never consulted it; timeouts bypass the guard entirely.)
	ackedSinceCut int
	cutWindow     int
}

// NewNewReno returns Reno-style congestion control for the given MSS.
func NewNewReno(mss int) *NewReno {
	c := &NewReno{mss: mss}
	c.Reset()
	return c
}

// Reset implements Controller: slow start from two segments.
func (c *NewReno) Reset() { *c = NewReno{mss: c.mss, cwnd: 2 * c.mss, ssthresh: 64 * 1024} }

// Name implements Controller.
func (c *NewReno) Name() string { return "newreno" }

// Window implements Controller.
func (c *NewReno) Window() int { return c.cwnd }

// PacingRate implements Controller: NewReno is purely window-clocked.
func (c *NewReno) PacingRate() float64 { return 0 }

// OnAck implements Controller.
func (c *NewReno) OnAck(s AckSample) {
	if s.Acked <= 0 {
		return
	}
	c.ackedSinceCut += s.Acked
	if c.cwnd < c.ssthresh {
		// Slow start: one MSS per MSS acked.
		c.cwnd += s.Acked
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	// Congestion avoidance: one MSS per window.
	c.caAccum += s.Acked
	if c.caAccum >= c.cwnd {
		c.caAccum -= c.cwnd
		c.cwnd += c.mss
	}
}

// OnLoss implements Controller.
func (c *NewReno) OnLoss(e LossEvent) {
	switch e.Kind {
	case LossFast:
		if !c.cutAllowed() {
			return
		}
		c.ssthresh = max(c.cwnd/2, 2*c.mss)
		c.cwnd = c.ssthresh
		c.noteCut()
	case LossTimeout:
		// Timeouts always react: the pipe has drained, the guard's
		// window accounting restarts from the collapsed window.
		c.ssthresh = max(c.cwnd/2, 2*c.mss)
		c.cwnd = c.mss
		c.noteCut()
	}
	c.caAccum = 0
}

// OnECN implements Controller: a mark reacts like a fast loss, behind
// the same per-window guard.
func (c *NewReno) OnECN() { c.OnLoss(LossEvent{Kind: LossFast}) }

// cutAllowed reports whether a window of bytes has been acknowledged
// since the last cut (always true before the first cut: cutWindow 0).
func (c *NewReno) cutAllowed() bool { return c.ackedSinceCut >= c.cutWindow }

// noteCut restarts the guard over the post-cut window.
func (c *NewReno) noteCut() {
	c.cutWindow = c.cwnd
	c.ackedSinceCut = 0
}
