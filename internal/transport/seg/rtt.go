package seg

import "time"

// RTTEstimator is the Jacobson/Karels smoothed RTT estimator with
// Karn's rule applied by the caller (never Sample a retransmitted
// segment) and exponential backoff on timeout.
type RTTEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	rto     time.Duration
	backoff int
	min     time.Duration
	max     time.Duration
	sampled bool
}

// NewRTTEstimator returns an estimator with the given initial RTO and
// clamping bounds.
func NewRTTEstimator(initial, min, max time.Duration) *RTTEstimator {
	e := new(RTTEstimator)
	e.Init(initial, min, max)
	return e
}

// Init readies an estimator held by value inside its owner: no samples
// yet, the given initial RTO and clamping bounds.
func (e *RTTEstimator) Init(initial, min, max time.Duration) {
	if initial <= 0 {
		initial = time.Second
	}
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 60 * time.Second
	}
	*e = RTTEstimator{rto: initial, min: min, max: max}
}

// Sample feeds one round-trip measurement (RFC 6298 constants).
func (e *RTTEstimator) Sample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.sampled {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.sampled = true
	} else {
		d := e.srtt - rtt
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.backoff = 0
	e.rto = e.clamp(e.srtt + 4*e.rttvar)
}

// Backoff doubles the RTO after a retransmission timeout.
func (e *RTTEstimator) Backoff() {
	e.backoff++
	e.rto = e.clamp(e.rto * 2)
}

// RTO returns the current retransmission timeout.
func (e *RTTEstimator) RTO() time.Duration { return e.rto }

func (e *RTTEstimator) clamp(d time.Duration) time.Duration {
	if d < e.min {
		return e.min
	}
	if d > e.max {
		return e.max
	}
	return d
}
