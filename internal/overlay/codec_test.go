package overlay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/network"
)

// FuzzOverlayFrame holds the overlay's hostile-byte parsers, which sit
// on every RPC's receive path, to their contracts:
//   - parseFrame never panics, and consumes either nothing or exactly
//     one header plus the length its header declares, copying that
//     payload out;
//   - appendFrame → parseFrame round-trips every field, or reports an
//     oversize payload;
//   - encodeRumor → decodeRumor round-trips, and every truncation of an
//     encoded rumor decodes as ok=false.
func FuzzOverlayFrame(f *testing.F) {
	f.Add(appendFrame(nil, classRequest, KindEcho, 42, 7, []byte("hello")))
	f.Add(appendFrame(nil, classCast, KindRumor, 0, 3, encodeRumor(nil, &Rumor{Origin: 3, Seq: 9, Body: []byte("body"), ttl: 4})))
	f.Add([]byte{frameMagic, frameVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, used, err := parseFrame(data)
		switch {
		case err != nil || used == 0:
			if used != 0 {
				t.Fatalf("consumed %d bytes with error %v", used, err)
			}
		default:
			n := int(binary.BigEndian.Uint32(data[16:]))
			if used != headerLen+n {
				t.Fatalf("consumed %d bytes of a frame declaring %d payload bytes", used, n)
			}
			if !bytes.Equal(fr.payload, data[headerLen:used]) {
				t.Fatal("payload differs from the frame's bytes")
			}
		}

		// Round trip, with the input as payload and header fields
		// drawn from its first bytes.
		var hdr [13]byte
		copy(hdr[:], data)
		class, kind := hdr[0], MsgKind(hdr[1])
		reqID := binary.BigEndian.Uint64(hdr[2:])
		from := network.Addr(binary.BigEndian.Uint32(hdr[9:]))
		enc := appendFrame([]byte("prefix"), class, kind, reqID, from, data)[len("prefix"):]
		fr, used, err = parseFrame(enc)
		if len(data) > maxPayload {
			if !errors.Is(err, errOversize) {
				t.Fatalf("%d-byte payload: err=%v, want oversize", len(data), err)
			}
		} else if err != nil || used != len(enc) || fr.class != class || fr.kind != kind ||
			fr.reqID != reqID || fr.from != from || !bytes.Equal(fr.payload, data) {
			t.Fatalf("frame round trip: used=%d/%d err=%v got %+v", used, len(enc), err, fr)
		}

		if len(data) > 0xFFFF {
			return // appendBytes refuses such a body (see its panic)
		}
		r := &Rumor{Origin: from, Seq: uint32(reqID), Body: data, ttl: int(class)}
		rum := encodeRumor(nil, r)
		origin, seq, ttl, body, rest, ok := decodeRumor(rum)
		if !ok || origin != r.Origin || seq != r.Seq || ttl != r.ttl || !bytes.Equal(body, data) || len(rest) != 0 {
			t.Fatalf("rumor round trip: ok=%v origin=%d seq=%d ttl=%d body=%d rest=%d",
				ok, origin, seq, ttl, len(body), len(rest))
		}
		for cut := 0; cut < len(rum); cut++ {
			if _, _, _, _, _, ok := decodeRumor(rum[:cut]); ok {
				t.Fatalf("rumor truncated to %d of %d bytes decodes", cut, len(rum))
			}
		}
	})
}

// TestAppendBytesRefusesOverlongField: a field the 16-bit prefix cannot
// describe panics rather than going out truncated.
func TestAppendBytesRefusesOverlongField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 65536-byte field was encoded")
		}
	}()
	appendBytes(nil, make([]byte, 0x10000))
}
