package datalink

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/stuffing"
	"repro/internal/sublayer"
)

// Framer delimits packets inside the bit stream the encoding sublayer
// provides. Implementations must tolerate leading and trailing junk
// bits (line-code padding, corruption) by locating frames rather than
// assuming exact boundaries.
type Framer interface {
	// Name identifies the framer.
	Name() string
	// Frame converts one packet into the bit string placed on the line.
	Frame(packet []byte) (bitio.Bits, error)
	// Deframe extracts the packets present in a received bit string.
	// Frames that are detectably damaged at the framing level are
	// simply absent from the result (loss is error recovery's job).
	Deframe(bits bitio.Bits) [][]byte
}

// ErrFrameTooLarge is returned when a packet exceeds a framer's
// representable size.
var ErrFrameTooLarge = errors.New("datalink: frame too large")

// BitStuffFramer frames with flags and a bit-stuffing rule — the
// paper's §4.1 protocol as a production sublayer. Its payloads are
// whole octets; the bit string on the line is generally not.
type BitStuffFramer struct {
	rule stuffing.Rule
	// w is the scratch encoder, reused across frames; Frame snapshots
	// its contents before returning, so nothing aliases it.
	w *bitio.Writer
}

// NewBitStuffFramer returns a framer using the given (validated)
// stuffing rule. It panics on an invalid rule: composing an unproven
// rule into a stack is a programming error.
func NewBitStuffFramer(rule stuffing.Rule) *BitStuffFramer {
	if err := rule.Validate(); err != nil {
		panic(fmt.Sprintf("datalink: %v", err))
	}
	return &BitStuffFramer{rule: rule, w: bitio.NewWriter(256)}
}

// Name implements Framer.
func (f *BitStuffFramer) Name() string { return "bitstuff" }

// Frame implements Framer.
func (f *BitStuffFramer) Frame(packet []byte) (bitio.Bits, error) {
	f.w.Reset()
	if err := f.rule.EncodeTo(bitio.FromBytes(packet), f.w); err != nil {
		return bitio.Bits{}, err
	}
	return f.w.Bits(), nil
}

// Deframe implements Framer: hunts flags in the bit string, unstuffs
// each span, and keeps spans that decode to whole octets.
func (f *BitStuffFramer) Deframe(bits bitio.Bits) [][]byte {
	frames, errs := f.rule.Deframe(bits)
	var out [][]byte
	for i, fr := range frames {
		if errs[i] != nil {
			continue
		}
		if b, err := fr.ToBytesExact(); err == nil {
			out = append(out, b)
		}
	}
	return out
}

// ByteStuffFramer is PPP-style byte stuffing: frames delimited by 0x7E,
// with 0x7E and 0x7D in the payload escaped as 0x7D followed by the
// byte XOR 0x20.
type ByteStuffFramer struct{}

const (
	byteFlag = 0x7E
	byteEsc  = 0x7D
	byteXor  = 0x20
)

// Name implements Framer.
func (ByteStuffFramer) Name() string { return "bytestuff" }

// Frame implements Framer.
func (ByteStuffFramer) Frame(packet []byte) (bitio.Bits, error) {
	out := make([]byte, 0, len(packet)+4)
	out = append(out, byteFlag)
	for _, b := range packet {
		if b == byteFlag || b == byteEsc {
			out = append(out, byteEsc, b^byteXor)
		} else {
			out = append(out, b)
		}
	}
	out = append(out, byteFlag)
	return bitio.FromBytes(out), nil
}

// Deframe implements Framer: scans whole bytes for flag-delimited
// spans and unescapes each.
func (ByteStuffFramer) Deframe(bits bitio.Bits) [][]byte {
	raw, _ := bits.Bytes()
	n := bits.Len() / 8
	raw = raw[:n]
	var out [][]byte
	var cur []byte
	inFrame := false
	damaged := false
	for i := 0; i < n; i++ {
		b := raw[i]
		if b == byteFlag {
			if inFrame && len(cur) > 0 && !damaged {
				out = append(out, cur)
			}
			cur, inFrame, damaged = nil, true, false
			continue
		}
		if !inFrame {
			continue
		}
		if b == byteEsc {
			if i+1 >= n {
				damaged = true
				break
			}
			i++
			next := raw[i] ^ byteXor
			if next != byteFlag && next != byteEsc {
				damaged = true // invalid escape sequence
				continue
			}
			cur = append(cur, next)
			continue
		}
		cur = append(cur, b)
	}
	return out
}

// LengthPrefixFramer prepends a magic byte and a 16-bit big-endian
// length. It is the cheapest framer but depends on byte alignment and
// resynchronizes only at magic boundaries.
type LengthPrefixFramer struct{}

const lengthMagic = 0xA7

// Name implements Framer.
func (LengthPrefixFramer) Name() string { return "lengthprefix" }

// Frame implements Framer.
func (LengthPrefixFramer) Frame(packet []byte) (bitio.Bits, error) {
	if len(packet) > 0xFFFF {
		return bitio.Bits{}, ErrFrameTooLarge
	}
	out := make([]byte, 3+len(packet))
	out[0] = lengthMagic
	binary.BigEndian.PutUint16(out[1:3], uint16(len(packet)))
	copy(out[3:], packet)
	return bitio.FromBytes(out), nil
}

// Deframe implements Framer.
func (LengthPrefixFramer) Deframe(bits bitio.Bits) [][]byte {
	raw, _ := bits.Bytes()
	n := bits.Len() / 8
	raw = raw[:n]
	var out [][]byte
	for i := 0; i+3 <= n; {
		if raw[i] != lengthMagic {
			i++ // hunt for magic
			continue
		}
		l := int(binary.BigEndian.Uint16(raw[i+1 : i+3]))
		if i+3+l > n {
			break // truncated
		}
		out = append(out, raw[i+3:i+3+l])
		i += 3 + l
	}
	return out
}

// Framing is the Fig. 2 framing sublayer: packets above, bit strings
// below, delimitation inside a swappable Framer.
type Framing struct {
	framer Framer
	rt     sublayer.Runtime
	// stats
	framed, deframed, junked uint64
}

// NewFraming wraps a Framer as a sublayer.
func NewFraming(f Framer) *Framing { return &Framing{framer: f} }

// Name implements sublayer.Sublayer.
func (f *Framing) Name() string { return "framing(" + f.framer.Name() + ")" }

// Service implements sublayer.Sublayer (T1).
func (f *Framing) Service() string {
	return "divides the symbol stream into frames so headers can be found as offsets"
}

// Attach implements sublayer.Sublayer.
func (f *Framing) Attach(rt sublayer.Runtime) { f.rt = rt }

// HandleDown frames one packet into line bits.
func (f *Framing) HandleDown(p *sublayer.PDU) {
	bits, err := f.framer.Frame(p.Data)
	if err != nil {
		f.rt.Drop(p, err.Error())
		return
	}
	data, n := bits.Bytes()
	p.Data, p.BitLen = data, n
	f.framed++
	f.rt.SendDown(p)
}

// HandleUp extracts zero or more packets from the received bits.
func (f *Framing) HandleUp(p *sublayer.PDU) {
	packets := f.framer.Deframe(pduBits(p))
	if len(packets) == 0 {
		f.junked++
		f.rt.Drop(p, "no frame found")
		return
	}
	for _, pkt := range packets {
		f.deframed++
		np := &sublayer.PDU{Data: pkt, Meta: p.Meta}
		f.rt.DeliverUp(np)
	}
}
