package datalink

import (
	"encoding/binary"
	"time"

	"repro/internal/metrics"
)

// Error recovery (ARQ) is the top Fig. 2 sublayer: it "adds a header
// with sequence numbers to guarantee delivery using retransmissions,
// but depends on error detection" — frames arriving with
// Meta.ErrDetected set are treated as lost. Three classic schemes are
// provided behind identical semantics (reliable, in-order,
// exactly-once delivery of frames): stop-and-wait, go-back-N and
// selective repeat. Every instance is full duplex; acknowledgements
// travel as their own frames.

// ARQ header: kind(1) seq(2) ack(2).
const arqHeaderLen = 5

type arqKind byte

const (
	arqData arqKind = 1
	arqAck  arqKind = 2
)

func arqEncap(kind arqKind, seq, ack uint16, payload []byte) []byte {
	out := make([]byte, arqHeaderLen+len(payload))
	out[0] = byte(kind)
	binary.BigEndian.PutUint16(out[1:3], seq)
	binary.BigEndian.PutUint16(out[3:5], ack)
	copy(out[arqHeaderLen:], payload)
	return out
}

func arqDecap(data []byte) (kind arqKind, seq, ack uint16, payload []byte, ok bool) {
	if len(data) < arqHeaderLen {
		return 0, 0, 0, nil, false
	}
	kind = arqKind(data[0])
	if kind != arqData && kind != arqAck {
		return 0, 0, 0, nil, false
	}
	seq = binary.BigEndian.Uint16(data[1:3])
	ack = binary.BigEndian.Uint16(data[3:5])
	return kind, seq, ack, data[arqHeaderLen:], true
}

// seq16Less reports a < b in mod-2^16 arithmetic (window < 2^15).
func seq16Less(a, b uint16) bool { return int16(a-b) < 0 }

// arqMetrics is the recovery-event instrument set shared by the three
// ARQ schemes. Each scheme embeds it; each lists the instruments under
// their leaf names, for Stats() to project as a View and BindMetrics
// to adopt into the registry.
type arqMetrics struct {
	sent        metrics.Counter // data frames first transmitted
	retransmits metrics.Counter
	delivered   metrics.Counter // frames delivered upward, exactly once each
	dupDropped  metrics.Counter // duplicate data frames discarded
	errDropped  metrics.Counter // frames discarded because error detection flagged them
	acksSent    metrics.Counter
	gaveUp      metrics.Counter
}

func (m *arqMetrics) each(f func(string, metrics.Instrument)) {
	f("sent", &m.sent)
	f("retransmits", &m.retransmits)
	f("delivered", &m.delivered)
	f("dup_dropped", &m.dupDropped)
	f("err_dropped", &m.errDropped)
	f("acks_sent", &m.acksSent)
	f("gave_up", &m.gaveUp)
}

// ARQConfig tunes an ARQ sublayer.
type ARQConfig struct {
	// Window is the sender window in frames (ignored by stop-and-wait).
	Window int
	// RTO is the retransmission timeout.
	RTO time.Duration
	// MaxRetries bounds retransmissions of one frame; 0 = unlimited.
	MaxRetries int
}

// withDefaults fills zero fields.
func (c ARQConfig) withDefaults() ARQConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.RTO <= 0 {
		c.RTO = 200 * time.Millisecond
	}
	return c
}
