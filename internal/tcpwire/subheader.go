package tcpwire

import (
	"encoding/binary"
	"fmt"
)

// SubHeader is the paper's Fig. 6 sublayered transport header. Each
// sublayer owns a disjoint section — "each sublayer acts on separate
// packet bits ... invisible to other sublayers" (T3) — and each section
// type knows how to marshal only itself, so the DM code never touches
// RD's bits and vice versa. The layout deliberately "bears no
// resemblance to the standard TCP header" yet is isomorphic to it
// (shim.go).
type SubHeader struct {
	DM  DMSection
	CM  CMSection
	RD  RDSection
	OSR OSRSection
}

// DMSection is the demultiplexing sublayer's bits: port numbers only.
type DMSection struct {
	SrcPort, DstPort uint16
}

// CMSection is connection management's bits: the connection-lifetime
// flags and the initial sequence number. The ISN is carried in every
// segment — redundant after the handshake, as the paper notes, but it
// is what makes the CM sublayer's state visible only in its own bits.
type CMSection struct {
	SYN, FIN, RST bool
	ISN           uint32
}

// RDSection is reliable delivery's bits: sequence/acknowledgement
// numbers and, in native mode, SACK blocks.
type RDSection struct {
	Seq, Ack uint32
	AckValid bool
	SACK     [][2]uint32
}

// OSRSection is ordering/segmenting/rate-control's bits: the flow
// control window, ECN echo bits, and the payload length.
type OSRSection struct {
	Window   uint16
	ECE, CWR bool
	DataLen  uint16
}

// Section sizes on the wire.
const (
	dmLen    = 4
	cmLen    = 5
	rdFixed  = 10 // flags(1) seq(4) ack(4) sackCount(1)
	osrLen   = 5
	subFixed = dmLen + cmLen + rdFixed + osrLen
)

// CM flag bits.
const (
	cmSYN = 1 << 0
	cmFIN = 1 << 1
	cmRST = 1 << 2
)

// RD flag bits.
const rdAckValid = 1 << 0

// OSR flag bits.
const (
	osrECE = 1 << 0
	osrCWR = 1 << 1
)

// MarshalInto writes the section at buf (dmLen bytes).
func (s DMSection) MarshalInto(buf []byte) {
	binary.BigEndian.PutUint16(buf[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], s.DstPort)
}

// UnmarshalDM decodes the section.
func UnmarshalDM(buf []byte) DMSection {
	return DMSection{
		SrcPort: binary.BigEndian.Uint16(buf[0:2]),
		DstPort: binary.BigEndian.Uint16(buf[2:4]),
	}
}

// MarshalInto writes the section at buf (cmLen bytes).
func (s CMSection) MarshalInto(buf []byte) {
	var f byte
	if s.SYN {
		f |= cmSYN
	}
	if s.FIN {
		f |= cmFIN
	}
	if s.RST {
		f |= cmRST
	}
	buf[0] = f
	binary.BigEndian.PutUint32(buf[1:5], s.ISN)
}

// UnmarshalCM decodes the section.
func UnmarshalCM(buf []byte) CMSection {
	return CMSection{
		SYN: buf[0]&cmSYN != 0,
		FIN: buf[0]&cmFIN != 0,
		RST: buf[0]&cmRST != 0,
		ISN: binary.BigEndian.Uint32(buf[1:5]),
	}
}

// wireLen returns the section's variable size.
func (s RDSection) wireLen() int { return rdFixed + 8*len(s.SACK) }

// MarshalInto writes the section at buf (s.wireLen() bytes).
func (s RDSection) MarshalInto(buf []byte) {
	var f byte
	if s.AckValid {
		f |= rdAckValid
	}
	buf[0] = f
	binary.BigEndian.PutUint32(buf[1:5], s.Seq)
	binary.BigEndian.PutUint32(buf[5:9], s.Ack)
	buf[9] = byte(len(s.SACK))
	at := rdFixed
	for _, b := range s.SACK {
		binary.BigEndian.PutUint32(buf[at:at+4], b[0])
		binary.BigEndian.PutUint32(buf[at+4:at+8], b[1])
		at += 8
	}
}

// unmarshalRDInto decodes into s, reusing s.SACK's storage.
func unmarshalRDInto(s *RDSection, buf []byte) (int, error) {
	if len(buf) < rdFixed {
		return 0, ErrTruncated
	}
	s.AckValid = buf[0]&rdAckValid != 0
	s.Seq = binary.BigEndian.Uint32(buf[1:5])
	s.Ack = binary.BigEndian.Uint32(buf[5:9])
	n := int(buf[9])
	if len(buf) < rdFixed+8*n {
		return 0, ErrTruncated
	}
	s.SACK = s.SACK[:0]
	at := rdFixed
	for i := 0; i < n; i++ {
		s.SACK = append(s.SACK, [2]uint32{
			binary.BigEndian.Uint32(buf[at : at+4]),
			binary.BigEndian.Uint32(buf[at+4 : at+8]),
		})
		at += 8
	}
	return at, nil
}

// MarshalInto writes the section at buf (osrLen bytes).
func (s OSRSection) MarshalInto(buf []byte) {
	binary.BigEndian.PutUint16(buf[0:2], s.Window)
	var f byte
	if s.ECE {
		f |= osrECE
	}
	if s.CWR {
		f |= osrCWR
	}
	buf[2] = f
	binary.BigEndian.PutUint16(buf[3:5], s.DataLen)
}

// UnmarshalOSR decodes the section.
func UnmarshalOSR(buf []byte) OSRSection {
	return OSRSection{
		Window:  binary.BigEndian.Uint16(buf[0:2]),
		ECE:     buf[2]&osrECE != 0,
		CWR:     buf[2]&osrCWR != 0,
		DataLen: binary.BigEndian.Uint16(buf[3:5]),
	}
}

// WireLen returns Marshal's output size for a payload of payloadLen
// bytes, so callers can size a pooled buffer and use MarshalTo.
func (h *SubHeader) WireLen(payloadLen int) int {
	return subFixed + 8*len(h.RD.SACK) + payloadLen
}

// MarshalTo encodes the full sublayered header followed by the payload
// into buf, which must be at least h.WireLen(len(payload)) bytes.
// DataLen is filled from the payload. The output bytes are identical
// to Marshal's.
func (h *SubHeader) MarshalTo(buf []byte, payload []byte) {
	h.OSR.DataLen = uint16(len(payload))
	at := 0
	h.DM.MarshalInto(buf[at : at+dmLen])
	at += dmLen
	h.CM.MarshalInto(buf[at : at+cmLen])
	at += cmLen
	h.RD.MarshalInto(buf[at : at+h.RD.wireLen()])
	at += h.RD.wireLen()
	h.OSR.MarshalInto(buf[at : at+osrLen])
	at += osrLen
	copy(buf[at:], payload)
}

// Marshal encodes the full sublayered header followed by the payload.
// DataLen is filled from the payload.
func (h *SubHeader) Marshal(payload []byte) []byte {
	out := make([]byte, h.WireLen(len(payload)))
	h.MarshalTo(out, payload)
	return out
}

// UnmarshalSub decodes a sublayered segment.
func UnmarshalSub(data []byte) (*SubHeader, []byte, error) {
	h := &SubHeader{}
	payload, err := UnmarshalSubInto(h, data)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// UnmarshalSubInto decodes a sublayered segment into h, reusing h's
// SACK storage — the receive path parses every arriving segment into
// one scratch header with zero allocations. The returned payload
// aliases data.
func UnmarshalSubInto(h *SubHeader, data []byte) ([]byte, error) {
	if len(data) < subFixed {
		return nil, ErrTruncated
	}
	at := 0
	h.DM = UnmarshalDM(data[at : at+dmLen])
	at += dmLen
	h.CM = UnmarshalCM(data[at : at+cmLen])
	at += cmLen
	n, err := unmarshalRDInto(&h.RD, data[at:])
	if err != nil {
		return nil, err
	}
	at += n
	if len(data) < at+osrLen {
		return nil, ErrTruncated
	}
	h.OSR = UnmarshalOSR(data[at : at+osrLen])
	at += osrLen
	payload := data[at:]
	if int(h.OSR.DataLen) != len(payload) {
		return nil, fmt.Errorf("%w: DataLen %d but %d payload bytes", ErrTruncated, h.OSR.DataLen, len(payload))
	}
	return payload, nil
}
