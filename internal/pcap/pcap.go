// Package pcap writes pcapng capture files (the format Wireshark and
// tshark read natively) from simulated link traffic. The writer is
// hand-rolled against the pcapng specification — Section Header Block,
// one Interface Description Block per simulated link, and one Enhanced
// Packet Block per transmitted frame — with no dependencies beyond the
// standard library.
//
// Frames are written with LINKTYPE_USER0 (there is no real media
// underneath; the bytes are the simulator's wire format, which
// Wireshark shows as raw data), nanosecond timestamps taken from the
// simulator's virtual clock, and an opt_comment per packet carrying the
// causal trace ID and the decoded sublayer summary. Because every
// input is virtual — time, interface order, frame bytes — two
// same-seed runs produce byte-identical capture files.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// pcapng block types and option codes used here.
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockEPB = 0x00000006

	byteOrderMagic = 0x1A2B3C4D

	optEnd     = 0
	optComment = 1
	optIfName  = 2 // if_name
	optTsresol = 9 // if_tsresol

	// linktypeUser0 is LINKTYPE_USER0: reserved for private use, which
	// is exactly what a simulator's custom wire format is.
	linktypeUser0 = 147
)

// Writer emits one pcapng section. Interfaces are registered lazily:
// the first packet naming a new interface writes its Interface
// Description Block before the packet, so interface IDs follow
// first-transmission order (deterministic under a deterministic
// simulator).
type Writer struct {
	w       io.Writer
	ifaces  map[string]uint32
	order   []string
	err     error
	scratch []byte
}

// NewWriter writes the Section Header Block and returns the writer.
func NewWriter(w io.Writer) (*Writer, error) {
	pw := &Writer{w: w, ifaces: make(map[string]uint32)}
	// SHB body: magic, version 1.0, section length unknown (-1).
	body := make([]byte, 16)
	binary.LittleEndian.PutUint32(body[0:], byteOrderMagic)
	binary.LittleEndian.PutUint16(body[4:], 1) // major
	binary.LittleEndian.PutUint16(body[6:], 0) // minor
	binary.LittleEndian.PutUint64(body[8:], 0xFFFFFFFFFFFFFFFF)
	pw.block(blockSHB, body)
	return pw, pw.err
}

// WritePacket appends one frame transmitted on the named interface at
// virtual time ns (nanoseconds). comment, when non-empty, becomes the
// packet's opt_comment — Wireshark shows it in the packet details and
// `tshark -T fields -e pkt_comment` extracts it.
func (pw *Writer) WritePacket(iface string, ns int64, comment string, frame []byte) error {
	if pw.err != nil {
		return pw.err
	}
	id, ok := pw.ifaces[iface]
	if !ok {
		id = uint32(len(pw.order))
		pw.ifaces[iface] = id
		pw.order = append(pw.order, iface)
		pw.writeIDB(iface)
		if pw.err != nil {
			return pw.err
		}
	}
	// EPB fixed part: interface, timestamp hi/lo, captured len, orig len.
	body := pw.scratch[:0]
	body = appendU32(body, id)
	body = appendU32(body, uint32(uint64(ns)>>32))
	body = appendU32(body, uint32(uint64(ns)))
	body = appendU32(body, uint32(len(frame)))
	body = appendU32(body, uint32(len(frame)))
	body = appendPadded(body, frame)
	if comment != "" {
		body = appendOption(body, optComment, []byte(comment))
		body = appendOption(body, optEnd, nil)
	}
	pw.scratch = body
	pw.block(blockEPB, body)
	return pw.err
}

// writeIDB emits the Interface Description Block for a new interface:
// LINKTYPE_USER0, unlimited snaplen, nanosecond timestamp resolution,
// and the simulated link's name.
func (pw *Writer) writeIDB(name string) {
	body := make([]byte, 8, 8+4+len(name)+8)
	binary.LittleEndian.PutUint16(body[0:], linktypeUser0)
	// body[2:4] reserved, body[4:8] snaplen 0 = no limit.
	body = appendOption(body, optIfName, []byte(name))
	body = appendOption(body, optTsresol, []byte{9}) // 10^-9 s
	body = appendOption(body, optEnd, nil)
	pw.block(blockIDB, body)
}

// block frames a body into `type | total length | body | total length`.
func (pw *Writer) block(typ uint32, body []byte) {
	if pw.err != nil {
		return
	}
	total := uint32(12 + len(body))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], typ)
	binary.LittleEndian.PutUint32(hdr[4:], total)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		pw.err = fmt.Errorf("pcap: %w", err)
		return
	}
	if _, err := pw.w.Write(body); err != nil {
		pw.err = fmt.Errorf("pcap: %w", err)
		return
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], total)
	if _, err := pw.w.Write(tail[:]); err != nil {
		pw.err = fmt.Errorf("pcap: %w", err)
	}
}

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

// appendPadded appends data padded with zeros to a 32-bit boundary, as
// every pcapng variable-length field requires.
func appendPadded(b, data []byte) []byte {
	b = append(b, data...)
	if pad := (4 - len(data)%4) % 4; pad > 0 {
		b = append(b, make([]byte, pad)...)
	}
	return b
}

// appendOption appends one option record: code, length, padded value.
func appendOption(b []byte, code uint16, val []byte) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint16(tmp[0:], code)
	binary.LittleEndian.PutUint16(tmp[2:], uint16(len(val)))
	b = append(b, tmp[:]...)
	return appendPadded(b, val)
}
