package datalink

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sublayer"
)

// SelectiveRepeat acknowledges and retransmits individual frames: the
// receiver buffers out-of-order frames within its window and the
// sender retransmits only what timed out. The window must be at most
// half the sequence space.
type SelectiveRepeat struct {
	cfg ARQConfig
	rt  sublayer.Runtime
	m   arqMetrics

	// Sender half.
	queue [][]byte
	sent  map[uint16]*srFrame
	base  uint16
	next  uint16

	// Receiver half.
	expect uint16
	buffer map[uint16][]byte

	// halted: a frame exhausted MaxRetries; see StopAndWait.halted.
	halted bool
}

type srFrame struct {
	payload []byte
	acked   bool
	retries int
	timer   *netsim.Timer
}

// NewSelectiveRepeat returns a selective-repeat ARQ sublayer.
func NewSelectiveRepeat(cfg ARQConfig) *SelectiveRepeat {
	c := cfg.withDefaults()
	if c.Window >= 1<<15 {
		panic("datalink: selective-repeat window must be < 2^15")
	}
	return &SelectiveRepeat{
		cfg:    c,
		sent:   make(map[uint16]*srFrame),
		buffer: make(map[uint16][]byte),
	}
}

// Name implements sublayer.Sublayer.
func (s *SelectiveRepeat) Name() string { return "arq(selective-repeat)" }

// Service implements sublayer.Sublayer (T1).
func (s *SelectiveRepeat) Service() string {
	return "guarantees exactly-once frame delivery retransmitting only lost frames"
}

// Attach implements sublayer.Sublayer.
func (s *SelectiveRepeat) Attach(rt sublayer.Runtime) { s.rt = rt }

// Stats returns a view of the recovery counters.
func (s *SelectiveRepeat) Stats() metrics.View { return metrics.ViewOf(s.m.each) }

// BindMetrics implements metrics.Instrumented.
func (s *SelectiveRepeat) BindMetrics(sc *metrics.Scope) { s.m.each(sc.Register) }

// HandleDown queues a packet and fills the window.
func (s *SelectiveRepeat) HandleDown(p *sublayer.PDU) {
	if s.halted {
		s.rt.Drop(p, "link declared dead")
		return
	}
	s.queue = append(s.queue, p.Data)
	s.fill()
}

func (s *SelectiveRepeat) fill() {
	for len(s.queue) > 0 && int(s.next-s.base) < s.cfg.Window {
		payload := s.queue[0]
		s.queue = s.queue[1:]
		f := &srFrame{payload: payload}
		s.sent[s.next] = f
		seq := s.next
		s.next++
		s.m.sent.Inc()
		s.transmit(seq, f)
	}
}

func (s *SelectiveRepeat) transmit(seq uint16, f *srFrame) {
	s.rt.SendDown(sublayer.NewPDU(arqEncap(arqData, seq, 0, f.payload)))
	if f.timer != nil {
		f.timer.Stop()
	}
	f.timer = s.rt.Schedule(s.cfg.RTO, func() { s.onTimeout(seq) })
}

func (s *SelectiveRepeat) onTimeout(seq uint16) {
	f, ok := s.sent[seq]
	if !ok || f.acked {
		return
	}
	f.retries++
	if s.cfg.MaxRetries > 0 && f.retries > s.cfg.MaxRetries {
		// A reliable window cannot skip a frame: declare the link dead.
		s.m.gaveUp.Inc()
		s.halted = true
		s.queue = nil
		for _, fr := range s.sent {
			if fr.timer != nil {
				fr.timer.Stop()
			}
		}
		return
	}
	s.m.retransmits.Inc()
	s.transmit(seq, f)
}

// slide advances base over acknowledged frames and refills.
func (s *SelectiveRepeat) slide() {
	for {
		f, ok := s.sent[s.base]
		if !ok || !f.acked {
			break
		}
		if f.timer != nil {
			f.timer.Stop()
		}
		delete(s.sent, s.base)
		s.base++
	}
	s.fill()
}

// HandleUp processes data and per-frame ack frames.
func (s *SelectiveRepeat) HandleUp(p *sublayer.PDU) {
	if p.Meta.ErrDetected {
		s.m.errDropped.Inc()
		s.rt.Drop(p, "checksum failure")
		return
	}
	kind, seq, ack, payload, ok := arqDecap(p.Data)
	if !ok {
		s.rt.Drop(p, "short or malformed ARQ frame")
		return
	}
	switch kind {
	case arqAck:
		if f, ok := s.sent[ack]; ok && !f.acked {
			f.acked = true
			if f.timer != nil {
				f.timer.Stop()
			}
			s.slide()
		}
	case arqData:
		// Ack every data frame individually, even duplicates (the
		// original ack may have been lost).
		s.m.acksSent.Inc()
		s.rt.SendDown(sublayer.NewPDU(arqEncap(arqAck, 0, seq, nil)))
		switch {
		case seq == s.expect:
			s.m.delivered.Inc()
			s.rt.DeliverUp(&sublayer.PDU{Data: payload, Meta: p.Meta})
			s.expect++
			// Flush any buffered successors.
			for {
				buf, ok := s.buffer[s.expect]
				if !ok {
					break
				}
				delete(s.buffer, s.expect)
				s.m.delivered.Inc()
				s.rt.DeliverUp(&sublayer.PDU{Data: buf})
				s.expect++
			}
		case seq16Less(s.expect, seq) && int(seq-s.expect) < s.cfg.Window:
			if _, dup := s.buffer[seq]; dup {
				s.m.dupDropped.Inc()
			} else {
				s.buffer[seq] = payload
			}
		default:
			s.m.dupDropped.Inc() // before window: already delivered
		}
	}
}
