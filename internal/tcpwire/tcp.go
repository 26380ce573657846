// Package tcpwire implements the two transport wire formats the paper
// compares and the shim between them:
//
//   - the standard RFC 793 TCP header (with MSS, window-scale,
//     SACK-permitted and SACK options), used by the monolithic TCP and
//     by sublayered endpoints operating behind the shim;
//   - the paper's Fig. 6 sublayered header, in which each sublayer (DM,
//     CM, RD, OSR) owns a disjoint section of bits;
//   - the header isomorphism of §3.1: every field of one format maps to
//     a field of the other, so a shim sublayer can translate packets in
//     both directions, enabling a sublayered TCP to interoperate with a
//     standard one (challenge 2). The ISN field is redundant after the
//     handshake, so the RFC793→Fig6 direction is stateful: the shim
//     remembers each connection's ISNs, learned from the SYN exchange.
package tcpwire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TCP header flags, RFC 793 plus ECN bits (RFC 3168).
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
	FlagECE = 1 << 6
	FlagCWR = 1 << 7
)

// TCPHeader is a decoded RFC 793 header with the options this
// implementation understands.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Urgent           uint16

	// Options; zero values mean "absent".
	MSS           uint16
	WScale        int8 // -1 = absent
	SACKPermitted bool
	SACKBlocks    [][2]uint32
}

// baseHeaderLen is the option-free TCP header size.
const baseHeaderLen = 20

// maxWScale is the largest window-scale shift (RFC 7323).
const maxWScale = 14

// Option kinds.
const (
	optEnd           = 0
	optNOP           = 1
	optMSS           = 2
	optWScale        = 3
	optSACKPermitted = 4
	optSACK          = 5
)

// ErrBadChecksum reports a checksum mismatch on decode.
var ErrBadChecksum = errors.New("tcpwire: bad checksum")

// ErrTruncated reports a short or internally inconsistent packet.
var ErrTruncated = errors.New("tcpwire: truncated segment")

// optLen returns the encoded options size including NOP padding to a
// 32-bit boundary.
func (h *TCPHeader) optLen() int {
	n := 0
	if h.MSS != 0 {
		n += 4
	}
	if h.WScale >= 0 {
		n += 3
	}
	if h.SACKPermitted {
		n += 2
	}
	if len(h.SACKBlocks) > 0 {
		n += 2 + 8*len(h.SACKBlocks)
	}
	return (n + 3) &^ 3
}

// WireLen returns Marshal's output size for a payload of payloadLen
// bytes, so callers can size a pooled buffer and use MarshalTo.
func (h *TCPHeader) WireLen(payloadLen int) int {
	return baseHeaderLen + h.optLen() + payloadLen
}

// MarshalTo encodes the header and payload into buf, which must be at
// least h.WireLen(len(payload)) bytes, computing the checksum over the
// pseudo-header. The output bytes are identical to Marshal's.
func (h *TCPHeader) MarshalTo(buf []byte, payload []byte, srcAddr, dstAddr uint16) {
	hlen := baseHeaderLen + h.optLen()
	out := buf[:hlen+len(payload)]
	binary.BigEndian.PutUint16(out[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(out[2:4], h.DstPort)
	binary.BigEndian.PutUint32(out[4:8], h.Seq)
	binary.BigEndian.PutUint32(out[8:12], h.Ack)
	out[12] = byte(hlen/4) << 4
	out[13] = h.Flags
	binary.BigEndian.PutUint16(out[14:16], h.Window)
	out[16], out[17] = 0, 0 // checksum field must be zero while summing
	binary.BigEndian.PutUint16(out[18:20], h.Urgent)
	at := baseHeaderLen
	if h.MSS != 0 {
		out[at], out[at+1], out[at+2], out[at+3] = optMSS, 4, byte(h.MSS>>8), byte(h.MSS)
		at += 4
	}
	if h.WScale >= 0 {
		out[at], out[at+1], out[at+2] = optWScale, 3, byte(h.WScale)
		at += 3
	}
	if h.SACKPermitted {
		out[at], out[at+1] = optSACKPermitted, 2
		at += 2
	}
	if len(h.SACKBlocks) > 0 {
		out[at], out[at+1] = optSACK, byte(2+8*len(h.SACKBlocks))
		at += 2
		for _, b := range h.SACKBlocks {
			binary.BigEndian.PutUint32(out[at:at+4], b[0])
			binary.BigEndian.PutUint32(out[at+4:at+8], b[1])
			at += 8
		}
	}
	for at < hlen {
		out[at] = optNOP
		at++
	}
	copy(out[hlen:], payload)
	ck := Checksum(out, srcAddr, dstAddr)
	if ck == 0 {
		ck = 0xFFFF // transmit-side zero avoidance; equivalent in ones' complement
	}
	binary.BigEndian.PutUint16(out[16:18], ck)
}

// Marshal encodes the header and payload, computing the checksum over
// the pseudo-header (source and destination network addresses).
func (h *TCPHeader) Marshal(payload []byte, srcAddr, dstAddr uint16) []byte {
	out := make([]byte, h.WireLen(len(payload)))
	h.MarshalTo(out, payload, srcAddr, dstAddr)
	return out
}

// UnmarshalTCP decodes a segment and verifies its checksum against the
// pseudo-header.
func UnmarshalTCP(data []byte, srcAddr, dstAddr uint16) (*TCPHeader, []byte, error) {
	h := &TCPHeader{}
	payload, err := UnmarshalTCPInto(h, data, srcAddr, dstAddr)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// UnmarshalTCPInto decodes a segment into h, reusing h's SACKBlocks
// storage — the receive path parses every arriving segment into one
// scratch header with zero allocations. The returned payload aliases
// data.
func UnmarshalTCPInto(h *TCPHeader, data []byte, srcAddr, dstAddr uint16) ([]byte, error) {
	if len(data) < baseHeaderLen {
		return nil, ErrTruncated
	}
	hlen := int(data[12]>>4) * 4
	if hlen < baseHeaderLen || hlen > len(data) {
		return nil, ErrTruncated
	}
	if Checksum(data, srcAddr, dstAddr) != 0 {
		return nil, ErrBadChecksum
	}
	*h = TCPHeader{
		SrcPort:    binary.BigEndian.Uint16(data[0:2]),
		DstPort:    binary.BigEndian.Uint16(data[2:4]),
		Seq:        binary.BigEndian.Uint32(data[4:8]),
		Ack:        binary.BigEndian.Uint32(data[8:12]),
		Flags:      data[13],
		Window:     binary.BigEndian.Uint16(data[14:16]),
		Urgent:     binary.BigEndian.Uint16(data[18:20]),
		WScale:     -1,
		SACKBlocks: h.SACKBlocks[:0],
	}
	if err := h.parseOptions(data[baseHeaderLen:hlen]); err != nil {
		return nil, err
	}
	return data[hlen:], nil
}

func (h *TCPHeader) parseOptions(opts []byte) error {
	for i := 0; i < len(opts); {
		switch opts[i] {
		case optEnd:
			return nil
		case optNOP:
			i++
		default:
			if i+1 >= len(opts) {
				return fmt.Errorf("%w: option kind %d without length", ErrTruncated, opts[i])
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return fmt.Errorf("%w: option kind %d length %d", ErrTruncated, opts[i], l)
			}
			body := opts[i+2 : i+l]
			switch opts[i] {
			case optMSS:
				if len(body) == 2 {
					h.MSS = binary.BigEndian.Uint16(body)
				}
			case optWScale:
				if len(body) == 1 {
					// RFC 7323 §2.3: a shift above 14 is read as 14,
					// so a present option never decodes as absent (-1).
					h.WScale = int8(min(body[0], maxWScale))
				}
			case optSACKPermitted:
				h.SACKPermitted = true
			case optSACK:
				for at := 0; at+8 <= len(body); at += 8 {
					h.SACKBlocks = append(h.SACKBlocks, [2]uint32{
						binary.BigEndian.Uint32(body[at : at+4]),
						binary.BigEndian.Uint32(body[at+4 : at+8]),
					})
				}
			}
			i += l
		}
	}
	return nil
}

// Checksum computes the RFC 793 ones'-complement checksum over the
// segment plus a pseudo-header built from the 16-bit simulator
// addresses. Computing it over a segment whose checksum field is
// filled yields zero for an intact segment.
func Checksum(segment []byte, srcAddr, dstAddr uint16) uint16 {
	var sum uint32
	sum += uint32(srcAddr)
	sum += uint32(dstAddr)
	sum += uint32(len(segment))
	sum += 6 // protocol number, for tradition
	for i := 0; i+1 < len(segment); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(segment[i : i+2]))
	}
	if len(segment)%2 == 1 {
		sum += uint32(segment[len(segment)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// FlagString renders flags for traces ("SYN|ACK").
func FlagString(f uint8) string {
	names := []struct {
		bit  uint8
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		out = "none"
	}
	return out
}
