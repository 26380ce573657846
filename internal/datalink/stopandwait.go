package datalink

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sublayer"
)

// StopAndWait is the simplest ARQ: one outstanding frame, alternating
// sequence bit, retransmit on timeout.
type StopAndWait struct {
	cfg ARQConfig
	rt  sublayer.Runtime
	m   arqMetrics

	// Sender half.
	queue    [][]byte // payloads waiting their turn
	sendSeq  uint16   // 0/1 alternating bit of the outstanding frame
	inflight []byte   // payload awaiting ack, nil if none
	retries  int
	timer    *netsim.Timer

	// Receiver half.
	expect uint16 // next sequence bit expected

	// halted is set when a frame exhausts MaxRetries: an ARQ cannot
	// skip a frame unilaterally (the peer would never resynchronize),
	// so exhausting retries declares the link dead.
	halted bool
}

// NewStopAndWait returns a stop-and-wait ARQ sublayer.
func NewStopAndWait(cfg ARQConfig) *StopAndWait {
	return &StopAndWait{cfg: cfg.withDefaults()}
}

// Name implements sublayer.Sublayer.
func (s *StopAndWait) Name() string { return "arq(stop-and-wait)" }

// Service implements sublayer.Sublayer (T1).
func (s *StopAndWait) Service() string {
	return "guarantees in-order exactly-once frame delivery using retransmissions"
}

// Attach implements sublayer.Sublayer.
func (s *StopAndWait) Attach(rt sublayer.Runtime) { s.rt = rt }

// Stats returns a view of the recovery counters.
func (s *StopAndWait) Stats() metrics.View { return metrics.ViewOf(s.m.each) }

// BindMetrics implements metrics.Instrumented.
func (s *StopAndWait) BindMetrics(sc *metrics.Scope) { s.m.each(sc.Register) }

// HandleDown queues a packet and transmits if the channel is idle.
func (s *StopAndWait) HandleDown(p *sublayer.PDU) {
	if s.halted {
		s.rt.Drop(p, "link declared dead")
		return
	}
	s.queue = append(s.queue, p.Data)
	s.kick()
}

func (s *StopAndWait) kick() {
	if s.inflight != nil || len(s.queue) == 0 {
		return
	}
	s.inflight = s.queue[0]
	s.queue = s.queue[1:]
	s.retries = 0
	s.m.sent.Inc()
	s.transmit()
}

func (s *StopAndWait) transmit() {
	s.rt.SendDown(sublayer.NewPDU(arqEncap(arqData, s.sendSeq, 0, s.inflight)))
	s.armTimer()
}

func (s *StopAndWait) armTimer() {
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timer = s.rt.Schedule(s.cfg.RTO, s.onTimeout)
}

func (s *StopAndWait) onTimeout() {
	if s.inflight == nil {
		return
	}
	s.retries++
	if s.cfg.MaxRetries > 0 && s.retries > s.cfg.MaxRetries {
		s.m.gaveUp.Inc()
		s.halted = true
		s.inflight, s.queue = nil, nil
		return
	}
	s.m.retransmits.Inc()
	s.transmit()
}

// HandleUp processes data and ack frames from below.
func (s *StopAndWait) HandleUp(p *sublayer.PDU) {
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
		if s.inflight != nil && ack == s.sendSeq {
			s.inflight = nil
			s.sendSeq ^= 1
			if s.timer != nil {
				s.timer.Stop()
			}
			s.kick()
		}
	case arqData:
		// Always (re-)acknowledge; deliver only the expected bit.
		s.m.acksSent.Inc()
		s.rt.SendDown(sublayer.NewPDU(arqEncap(arqAck, 0, seq, nil)))
		if seq == s.expect {
			s.expect ^= 1
			s.m.delivered.Inc()
			s.rt.DeliverUp(&sublayer.PDU{Data: payload, Meta: p.Meta})
		} else {
			s.m.dupDropped.Inc()
		}
	}
}
