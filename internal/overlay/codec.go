package overlay

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/network"
)

// Wire format, version 1. Every overlay message — RPC request and
// response, gossip cast, DHT query — travels as one frame on a
// transport.Conn byte stream:
//
//	offset 0  magic   0xC5
//	       1  version 0x01
//	       2  class   frame class (request / response / cast)
//	       3  kind    application message kind (MsgKind)
//	       4  req id  uint64 big-endian (0 for casts)
//	      12  from    uint32 big-endian sender address
//	      16  length  uint32 big-endian payload length
//	      20  payload
//
// The codec is versioned so a future frame layout can coexist: a
// receiver rejects unknown magic/version bytes by killing the
// connection (counted under overlay/codec_errors) instead of guessing
// at field offsets.
const (
	frameMagic   = 0xC5
	frameVersion = 0x01
	headerLen    = 20
	// maxPayload bounds a single frame; anything larger is a codec
	// error on both sides (overlay messages are small control traffic,
	// not bulk transfer — bulk bytes belong to the workload engine).
	maxPayload = 1 << 16
)

// Frame class bytes.
const (
	classRequest  = 0x01
	classResponse = 0x02
	classCast     = 0x03
)

// MsgKind names an application message type within a tier.
type MsgKind uint8

// Message kinds across the three tiers. RPC kinds are per-service
// (echo is the E13 workload); DHT and gossip kinds are the protocol
// messages specified in docs/OVERLAYS.md.
const (
	// KindEcho is the RPC tier's echo service: the response payload
	// must equal the request payload byte for byte.
	KindEcho MsgKind = 0x10
	// KindFindNode asks for the k closest members to a 160-bit target.
	KindFindNode MsgKind = 0x20
	// KindStore writes a key/value pair to the receiver's local store.
	KindStore MsgKind = 0x21
	// KindGet asks for a value; the response carries the value or the
	// k closest members to the key.
	KindGet MsgKind = 0x22
	// KindRumor pushes one rumor (gossip cast, no response).
	KindRumor MsgKind = 0x30
	// KindDigest asks a peer to diff the sender's rumor key set.
	KindDigest MsgKind = 0x31
)

// frame is one decoded overlay message.
type frame struct {
	class   uint8
	kind    MsgKind
	reqID   uint64
	from    network.Addr
	payload []byte
}

// appendFrame encodes a frame onto buf.
func appendFrame(buf []byte, class uint8, kind MsgKind, reqID uint64, from network.Addr, payload []byte) []byte {
	var hdr [headerLen]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[2] = class
	hdr[3] = byte(kind)
	binary.BigEndian.PutUint64(hdr[4:], reqID)
	binary.BigEndian.PutUint32(hdr[12:], uint32(from))
	binary.BigEndian.PutUint32(hdr[16:], uint32(len(payload)))
	return append(append(buf, hdr[:]...), payload...)
}

var (
	errBadMagic   = errors.New("overlay: bad frame magic")
	errBadVersion = errors.New("overlay: unsupported codec version")
	errOversize   = errors.New("overlay: oversized frame payload")
)

// parseFrame decodes the first complete frame in buf. It returns the
// frame, the number of bytes consumed (0 when buf holds only a partial
// frame), or an unrecoverable codec error — after which the connection
// carrying buf cannot be resynchronized and must be dropped.
func parseFrame(buf []byte) (frame, int, error) {
	if len(buf) < headerLen {
		return frame{}, 0, nil
	}
	if buf[0] != frameMagic {
		return frame{}, 0, errBadMagic
	}
	if buf[1] != frameVersion {
		return frame{}, 0, fmt.Errorf("%w 0x%02x", errBadVersion, buf[1])
	}
	n := binary.BigEndian.Uint32(buf[16:])
	if n > maxPayload {
		return frame{}, 0, errOversize
	}
	total := headerLen + int(n)
	if len(buf) < total {
		return frame{}, 0, nil
	}
	f := frame{
		class: buf[2],
		kind:  MsgKind(buf[3]),
		reqID: binary.BigEndian.Uint64(buf[4:]),
		from:  network.Addr(binary.BigEndian.Uint32(buf[12:])),
	}
	// Copy the payload out: buf aliases the connection's reassembly
	// buffer, which the read loop compacts after every parse.
	f.payload = append([]byte(nil), buf[headerLen:total]...)
	return f, total, nil
}

// --- payload encoding helpers (deterministic, length-prefixed) ---

// appendUint16 / appendBytes build tier payloads; readers mirror them.
func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

// appendBytes panics on a field longer than its 16-bit length prefix
// can say: truncating the prefix would send bytes that decode as a
// different message.
func appendBytes(b, p []byte) []byte {
	if len(p) > 0xFFFF {
		panic(fmt.Sprintf("overlay: %d-byte field exceeds the 65535-byte wire limit", len(p)))
	}
	b = appendUint16(b, uint16(len(p)))
	return append(b, p...)
}

func readUint16(b []byte) (uint16, []byte, bool) {
	if len(b) < 2 {
		return 0, nil, false
	}
	return uint16(b[0])<<8 | uint16(b[1]), b[2:], true
}

func readBytes(b []byte) ([]byte, []byte, bool) {
	n, rest, ok := readUint16(b)
	if !ok || len(rest) < int(n) {
		return nil, nil, false
	}
	return rest[:n], rest[n:], true
}

// appendAddrs encodes a member list as uint32 addresses. Node IDs are
// derived from addresses (see id.go), so peer lists never carry raw
// IDs on the wire.
func appendAddrs(b []byte, addrs []network.Addr) []byte {
	b = appendUint16(b, uint16(len(addrs)))
	for _, a := range addrs {
		b = append(b, byte(uint32(a)>>24), byte(uint32(a)>>16), byte(uint32(a)>>8), byte(a))
	}
	return b
}

func readAddrs(b []byte) ([]network.Addr, []byte, bool) {
	n, rest, ok := readUint16(b)
	if !ok || len(rest) < 4*int(n) {
		return nil, nil, false
	}
	addrs := make([]network.Addr, n)
	for i := range addrs {
		addrs[i] = network.Addr(binary.BigEndian.Uint32(rest[4*i:]))
	}
	return addrs, rest[4*int(n):], true
}
