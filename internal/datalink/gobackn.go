package datalink

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sublayer"
)

// GoBackN keeps a window of outstanding frames; the receiver accepts
// only in order and acknowledges cumulatively (ack = next expected
// sequence). On timeout the sender resends the whole window.
type GoBackN struct {
	cfg ARQConfig
	rt  sublayer.Runtime
	m   arqMetrics

	// Sender half.
	queue   [][]byte          // not yet assigned a sequence number
	unacked map[uint16][]byte // seq → payload, in [base, next)
	base    uint16
	next    uint16
	retries int
	timer   *netsim.Timer

	// Receiver half.
	expect uint16

	// halted: a frame exhausted MaxRetries; see StopAndWait.halted.
	halted bool
}

// NewGoBackN returns a go-back-N ARQ sublayer.
func NewGoBackN(cfg ARQConfig) *GoBackN {
	c := cfg.withDefaults()
	if c.Window >= 1<<15 {
		panic("datalink: go-back-N window must be < 2^15")
	}
	return &GoBackN{cfg: c, unacked: make(map[uint16][]byte)}
}

// Name implements sublayer.Sublayer.
func (g *GoBackN) Name() string { return "arq(go-back-n)" }

// Service implements sublayer.Sublayer (T1).
func (g *GoBackN) Service() string {
	return "guarantees in-order exactly-once frame delivery using a sliding window"
}

// Attach implements sublayer.Sublayer.
func (g *GoBackN) Attach(rt sublayer.Runtime) { g.rt = rt }

// Stats returns a view of the recovery counters.
func (g *GoBackN) Stats() metrics.View { return metrics.ViewOf(g.m.each) }

// BindMetrics implements metrics.Instrumented.
func (g *GoBackN) BindMetrics(sc *metrics.Scope) { g.m.each(sc.Register) }

// HandleDown queues a packet and fills the window.
func (g *GoBackN) HandleDown(p *sublayer.PDU) {
	if g.halted {
		g.rt.Drop(p, "link declared dead")
		return
	}
	g.queue = append(g.queue, p.Data)
	g.fill()
}

func (g *GoBackN) fill() {
	for len(g.queue) > 0 && int(g.next-g.base) < g.cfg.Window {
		payload := g.queue[0]
		g.queue = g.queue[1:]
		g.unacked[g.next] = payload
		g.m.sent.Inc()
		g.rt.SendDown(sublayer.NewPDU(arqEncap(arqData, g.next, 0, payload)))
		g.next++
	}
	g.syncTimer()
}

func (g *GoBackN) syncTimer() {
	outstanding := g.base != g.next
	if !outstanding {
		if g.timer != nil {
			g.timer.Stop()
			g.timer = nil
		}
		return
	}
	if g.timer == nil || !g.timer.Active() {
		g.timer = g.rt.Schedule(g.cfg.RTO, g.onTimeout)
	}
}

func (g *GoBackN) onTimeout() {
	g.timer = nil
	if g.base == g.next {
		return
	}
	g.retries++
	if g.cfg.MaxRetries > 0 && g.retries > g.cfg.MaxRetries {
		// The window cannot be skipped unilaterally: declare the link
		// dead and stop.
		for s := g.base; s != g.next; s++ {
			delete(g.unacked, s)
			g.m.gaveUp.Inc()
		}
		g.halted = true
		g.queue = nil
		g.base = g.next
		return
	}
	// Go back N: resend every outstanding frame.
	for s := g.base; s != g.next; s++ {
		g.m.retransmits.Inc()
		g.rt.SendDown(sublayer.NewPDU(arqEncap(arqData, s, 0, g.unacked[s])))
	}
	g.syncTimer()
}

// HandleUp processes data and cumulative-ack frames.
func (g *GoBackN) HandleUp(p *sublayer.PDU) {
	if p.Meta.ErrDetected {
		g.m.errDropped.Inc()
		g.rt.Drop(p, "checksum failure")
		return
	}
	kind, seq, ack, payload, ok := arqDecap(p.Data)
	if !ok {
		g.rt.Drop(p, "short or malformed ARQ frame")
		return
	}
	switch kind {
	case arqAck:
		// ack = receiver's next expected sequence; it acknowledges
		// everything before it.
		if seq16Less(g.base, ack) || ack == g.next {
			if seq16Less(g.next, ack) {
				return // acknowledges frames never sent: stale/corrupt
			}
			for s := g.base; s != ack; s++ {
				delete(g.unacked, s)
			}
			if g.base != ack {
				g.base = ack
				g.retries = 0
				if g.timer != nil {
					g.timer.Stop()
					g.timer = nil
				}
			}
			g.fill()
		}
	case arqData:
		if seq == g.expect {
			g.expect++
			g.m.delivered.Inc()
			g.rt.DeliverUp(&sublayer.PDU{Data: payload, Meta: p.Meta})
		} else {
			g.m.dupDropped.Inc()
		}
		// Cumulative (re-)ack of everything below expect.
		g.m.acksSent.Inc()
		g.rt.SendDown(sublayer.NewPDU(arqEncap(arqAck, 0, g.expect, nil)))
	}
}
