// Package ccontrol is the congestion-control sublayer API: a
// Controller interface fed by a stack-agnostic signal vocabulary
// (acknowledgement samples with delivery accounting, summarized loss
// events, ECN marks) and producing a window plus an optional pacing
// rate, with a name→constructor Registry so stacks and experiments
// select algorithms by string.
//
// The paper's §3 hides rate control inside the OSR sublayer; this
// package is what makes that hiding useful — the same Controller drops
// into the sublayered OSR (a pure sublayer swap, litmus tests T1–T3
// unchanged) and into the monolithic PCB (where experiment E6's
// blast radius shows how much shared state the swap touches). The signal
// vocabulary is deliberately richer than the original ack-bytes+loss
// pair: AckSample carries cumulative delivery and in-flight counts so
// a delay/bandwidth-based controller (bbrlite) can compute delivery
// rates without reaching into either stack. The package depends only
// on the standard library: controllers know nothing about simulators,
// segments or sublayers.
//
// Experiment E12 is the proof by bake-off: {both stacks × three
// controllers × three loss regimes}, one table.
package ccontrol

import "time"

// LossKind distinguishes the congestion signals reliable delivery
// summarizes for rate control — "congestion signals such as timeouts
// and loss information should be summarized and passed by RD to OSR"
// (§3).
type LossKind int

// Loss kinds.
const (
	// LossFast is a fast-retransmit indication (3 duplicate acks).
	LossFast LossKind = iota
	// LossTimeout is a retransmission timeout.
	LossTimeout
)

func (k LossKind) String() string {
	if k == LossTimeout {
		return "timeout"
	}
	return "fast"
}

// AckSample is one acknowledgement's worth of congestion signal. The
// stack fills every field it can; controllers ignore what they do not
// need. All byte counts are stream payload bytes.
type AckSample struct {
	// Acked is the count of newly acknowledged bytes.
	Acked int
	// RTT is the round-trip sample for this ack, 0 when the sample was
	// invalid under Karn's rule.
	RTT time.Duration
	// Delivered is the cumulative count of bytes delivered (acked) over
	// the connection's lifetime. Successive samples let a controller
	// compute delivery rate: ΔDelivered/ΔNow.
	Delivered uint64
	// InFlight is the count of bytes outstanding after this ack.
	InFlight int
	// Now is the (virtual) clock at ack processing time, measured from
	// an arbitrary epoch. Monotone within a connection.
	Now time.Duration
}

// LossEvent is a summarized loss indication.
type LossEvent struct {
	Kind LossKind
}

// Controller is the rate-control policy. It owns nothing but its own
// window state; swapping implementations touches no other sublayer.
// The contract is the paper's: "if the network or receiver bottleneck
// rate changes and stays steady, the sending OSR will eventually reach
// and stay at that bottleneck rate." Window must stay positive under
// every signal sequence (the registry property test enforces it).
type Controller interface {
	// Name identifies the algorithm (the registry key it came from).
	Name() string
	// Window returns the bytes the sender may have in flight.
	Window() int
	// PacingRate returns the target send rate in bytes/sec, or 0 when
	// the controller does not pace (pure window control).
	PacingRate() float64
	// OnAck reports an acknowledgement sample.
	OnAck(s AckSample)
	// OnLoss reports a loss event summarized by reliable delivery.
	OnLoss(e LossEvent)
	// OnECN reports an explicit congestion mark echoed by the peer.
	// Controllers own their reaction guard: marks arrive per marked
	// packet, so a controller that cuts must suppress repeat cuts
	// within the same window itself (see newreno's bytes-acked guard).
	OnECN()
}

// Config parameterizes controller construction.
type Config struct {
	// MSS is the maximum segment payload in bytes (default 1000).
	MSS int
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1000
	}
	return c
}
