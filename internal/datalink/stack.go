package datalink

import (
	"repro/internal/netsim"
	"repro/internal/stuffing"
	"repro/internal/sublayer"
)

// StackConfig selects an implementation for each Fig. 2 sublayer.
// Every field is independently swappable (litmus test T3); zero values
// pick the classic HDLC-flavoured defaults.
type StackConfig struct {
	// ARQ is the error-recovery sublayer; nil gets go-back-N defaults.
	// Set NoARQ to build a stack without error recovery (for broadcast
	// links that use MAC instead, or raw datagram links).
	ARQ   sublayer.Sublayer
	NoARQ bool
	// Checksum is the error-detection algorithm; nil gets CRC-32.
	Checksum Checksum
	// Framer delimits frames; nil gets HDLC bit stuffing.
	Framer Framer
	// Code is the line code; nil gets NRZ.
	Code LineCode
}

func (c StackConfig) withDefaults() StackConfig {
	if c.ARQ == nil && !c.NoARQ {
		c.ARQ = NewGoBackN(ARQConfig{})
	}
	if c.Checksum == nil {
		c.Checksum = CRC32{}
	}
	if c.Framer == nil {
		c.Framer = NewBitStuffFramer(stuffing.HDLC())
	}
	if c.Code == nil {
		c.Code = NRZ{}
	}
	return c
}

// NewStack composes a data-link endpoint per Fig. 2, top to bottom:
// error recovery, error detection, framing, encoding. The returned
// sublayer.Stack's BindMetrics adopts the boundary counters and every
// instrumented sublayer (conventionally under "<name>/datalink").
func NewStack(sim netsim.Backend, name string, cfg StackConfig) (*sublayer.Stack, error) {
	cfg = cfg.withDefaults()
	layers := []sublayer.Sublayer{}
	if !cfg.NoARQ {
		layers = append(layers, cfg.ARQ)
	}
	return sublayer.New(sim, name, append(layers,
		NewErrDetect(cfg.Checksum),
		NewFraming(cfg.Framer),
		NewEncoding(cfg.Code),
	)...)
}

// Connect wires two data-link stacks over a duplex impaired link: each
// stack's wire output transmits on its direction and the peer's bottom
// receives. It returns the duplex for impairment control.
func Connect(sim netsim.Backend, a, b *sublayer.Stack, cfg netsim.LinkConfig) *netsim.Duplex {
	d := netsim.NewDuplexOn(sim, cfg,
		func(p *netsim.Packet) { a.Receive(&sublayer.PDU{Data: p.Data, Meta: sublayer.Meta{ECN: p.ECN}}) },
		func(p *netsim.Packet) { b.Receive(&sublayer.PDU{Data: p.Data, Meta: sublayer.Meta{ECN: p.ECN}}) },
	)
	a.SetWire(func(p *sublayer.PDU) { d.AB.Send(p.Data) })
	b.SetWire(func(p *sublayer.PDU) { d.BA.Send(p.Data) })
	return d
}
