// Package datalink implements the paper's Fig. 2 data-link sublayering:
// encoding/decoding at the bottom, framing above it, error detection
// above that, and error recovery (or MAC, for broadcast media) on top.
//
// Each sublayer is independently replaceable behind a small interface —
// line codes (NRZ, NRZI, Manchester), framers (bit stuffing, byte
// stuffing, length prefix), checksums (CRC-32, CRC-16, CRC-64,
// Fletcher-16) and ARQ schemes (stop-and-wait, go-back-N, selective
// repeat) — which is exactly the fungibility claim of litmus
// test T3: "the sublayer can be changed (to go from say CRC-32 to
// CRC-64) without changing other sublayers." The tests exercise every
// combination over corrupting links.
package datalink

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/sublayer"
)

// LineCode converts between logical bits and line symbols. Symbols are
// themselves represented as a bit string (one symbol per bit), which
// the encoding sublayer packs into bytes for the simulated wire.
type LineCode interface {
	// Name identifies the code.
	Name() string
	// Encode maps logical bits to line symbols.
	Encode(bits bitio.Bits) bitio.Bits
	// Decode maps line symbols back to logical bits. Trailing symbols
	// that do not form a whole code unit are ignored (they arise from
	// byte padding on the wire).
	Decode(symbols bitio.Bits) bitio.Bits
	// Expansion is the symbols-per-bit ratio (1 for NRZ/NRZI, 2 for
	// Manchester), used by capacity accounting.
	Expansion() int
}

// NRZ is the identity line code: bit b is symbol b.
type NRZ struct{}

// Name implements LineCode.
func (NRZ) Name() string { return "nrz" }

// Encode implements LineCode.
func (NRZ) Encode(bits bitio.Bits) bitio.Bits { return bits }

// Decode implements LineCode.
func (NRZ) Decode(symbols bitio.Bits) bitio.Bits { return symbols }

// Expansion implements LineCode.
func (NRZ) Expansion() int { return 1 }

// NRZI encodes a 1 as a transition and a 0 as no transition, starting
// from line level 0. Used by HDLC-family links; pairs naturally with
// bit stuffing, which bounds the run length of 1s.
type NRZI struct{}

// Name implements LineCode.
func (NRZI) Name() string { return "nrzi" }

// Encode implements LineCode.
func (NRZI) Encode(bits bitio.Bits) bitio.Bits {
	w := bitio.NewWriter(bits.Len())
	level := bitio.Bit(0)
	for i := 0; i < bits.Len(); i++ {
		if bits.At(i) == 1 {
			level ^= 1
		}
		w.WriteBit(level)
	}
	return w.Bits()
}

// Decode implements LineCode.
func (NRZI) Decode(symbols bitio.Bits) bitio.Bits {
	w := bitio.NewWriter(symbols.Len())
	level := bitio.Bit(0)
	for i := 0; i < symbols.Len(); i++ {
		s := symbols.At(i)
		if s != level {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
		level = s
	}
	return w.Bits()
}

// Expansion implements LineCode.
func (NRZI) Expansion() int { return 1 }

// Manchester encodes 1 as symbols 10 and 0 as symbols 01 (IEEE
// convention inverted is equally valid; the peer must agree). Doubles
// the symbol rate but self-clocks.
type Manchester struct{}

// Name implements LineCode.
func (Manchester) Name() string { return "manchester" }

// Encode implements LineCode.
func (Manchester) Encode(bits bitio.Bits) bitio.Bits {
	w := bitio.NewWriter(bits.Len() * 2)
	for i := 0; i < bits.Len(); i++ {
		if bits.At(i) == 1 {
			w.WriteBit(1)
			w.WriteBit(0)
		} else {
			w.WriteBit(0)
			w.WriteBit(1)
		}
	}
	return w.Bits()
}

// Decode implements LineCode. Symbol pairs 10→1, 01→0; invalid pairs
// (00/11, which arise only from corruption or padding) decode to 0 and
// are caught by error detection above.
func (Manchester) Decode(symbols bitio.Bits) bitio.Bits {
	n := symbols.Len() / 2
	w := bitio.NewWriter(n)
	for i := 0; i < n; i++ {
		a, b := symbols.At(2*i), symbols.At(2*i+1)
		if a == 1 && b == 0 {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	return w.Bits()
}

// Expansion implements LineCode.
func (Manchester) Expansion() int { return 2 }

// Encoding is the bottom sublayer of Fig. 2: it converts the framing
// sublayer's bit string to line symbols on the way down and back on the
// way up. On the wire the symbol string is packed into bytes; the ≤7
// bits of padding this adds are tolerated by the framer's flag hunt (a
// flag is 8 bits, so padding alone can never complete one).
type Encoding struct {
	code LineCode
	rt   sublayer.Runtime
}

// NewEncoding returns the encoding sublayer using the given line code.
func NewEncoding(code LineCode) *Encoding { return &Encoding{code: code} }

// Name implements sublayer.Sublayer.
func (e *Encoding) Name() string { return "encoding(" + e.code.Name() + ")" }

// Service implements sublayer.Sublayer (T1).
func (e *Encoding) Service() string {
	return "converts physical-layer symbols to and from bit streams"
}

// Attach implements sublayer.Sublayer.
func (e *Encoding) Attach(rt sublayer.Runtime) { e.rt = rt }

// HandleDown encodes the frame bits into packed symbols.
func (e *Encoding) HandleDown(p *sublayer.PDU) {
	bits := pduBits(p)
	symbols := e.code.Encode(bits)
	data, _ := symbols.Bytes()
	p.Data, p.BitLen = data, 0 // wire PDUs are plain bytes
	e.rt.SendDown(p)
}

// HandleUp decodes packed symbols back into frame bits.
func (e *Encoding) HandleUp(p *sublayer.PDU) {
	symbols := bitio.FromBytes(p.Data)
	bits := e.code.Decode(symbols)
	data, n := bits.Bytes()
	p.Data, p.BitLen = data, n
	e.rt.DeliverUp(p)
}

// pduBits views a PDU's payload as a bit string, honouring BitLen.
func pduBits(p *sublayer.PDU) bitio.Bits {
	b := bitio.FromBytes(p.Data)
	if p.BitLen > 0 {
		if p.BitLen > b.Len() {
			panic(fmt.Sprintf("datalink: BitLen %d exceeds data %d bits", p.BitLen, b.Len()))
		}
		return b.Slice(0, p.BitLen)
	}
	return b
}
