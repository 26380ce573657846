package tcpwire

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzSubHeader checks the two sublayered-header decoders against each
// other on hostile bytes: UnmarshalSub (a fresh header per call) is the
// reference for UnmarshalSubInto, which the receive path runs into one
// scratch header whose SACK storage survives from the previous
// segment. They must accept and reject the same inputs and, on
// acceptance, decode the same header and payload.
func FuzzSubHeader(f *testing.F) {
	sackful := &SubHeader{
		DM: DMSection{SrcPort: 49152, DstPort: 80},
		CM: CMSection{SYN: true, ISN: 7},
		RD: RDSection{Seq: 1, Ack: 2, AckValid: true,
			SACK: [][2]uint32{{10, 20}, {30, 40}, {50, 60}}},
		OSR: OSRSection{Window: 65535, ECE: true},
	}
	f.Add([]byte{})
	f.Add(sackful.Marshal([]byte("payload")))
	f.Add((&SubHeader{CM: CMSection{FIN: true}}).Marshal(nil))
	prev := sackful.Marshal(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantPayload, wantErr := UnmarshalSub(data)

		var scratch SubHeader
		if _, err := UnmarshalSubInto(&scratch, prev); err != nil {
			t.Fatal(err)
		}
		payload, err := UnmarshalSubInto(&scratch, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalSubInto err %v, UnmarshalSub err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if scratch.DM != want.DM || scratch.CM != want.CM || scratch.OSR != want.OSR ||
			scratch.RD.Seq != want.RD.Seq || scratch.RD.Ack != want.RD.Ack ||
			scratch.RD.AckValid != want.RD.AckValid || !slices.Equal(scratch.RD.SACK, want.RD.SACK) {
			t.Fatalf("decoders disagree:\n into %+v\n fresh %+v", scratch, *want)
		}
		if !slices.Equal(payload, wantPayload) {
			t.Fatalf("payloads differ: %x vs %x", payload, wantPayload)
		}
	})
}

// FuzzTCPHeader runs hostile bytes through the RFC 793 decoder. With
// patch set the checksum field is rewritten so the segment verifies,
// which lets random bytes reach the header and option parsers. Then:
//   - UnmarshalTCPInto, decoding into a scratch header whose SACKBlocks
//     survive from an earlier segment, accepts and rejects what a fresh
//     UnmarshalTCP does and decodes the same header and payload;
//   - an accepted segment re-marshals with MarshalTo into bytes that
//     decode to the same header and payload;
//   - parseOptions, run on the raw bytes as an option area, never
//     panics.
func FuzzTCPHeader(f *testing.F) {
	const src, dst = 3, 4
	sackful := &TCPHeader{SrcPort: 49152, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK | FlagECE,
		Window: 65535, MSS: 1460, WScale: 7, SACKPermitted: true,
		SACKBlocks: [][2]uint32{{10, 20}, {30, 40}, {50, 60}}}
	f.Add([]byte{}, false)
	f.Add(sackful.Marshal([]byte("payload"), src, dst), false)
	f.Add((&TCPHeader{Flags: FlagSYN, WScale: -1}).Marshal(nil, src, dst), true)
	// A 60-byte header: window scale 200, a SACK option with a partial
	// block, an unknown option and an end-of-options byte ahead of junk.
	wild := make([]byte, 64)
	wild[12] = 15 << 4
	copy(wild[baseHeaderLen:], []byte{optWScale, 3, 200, optSACK, 14, 0, 0, 0, 1, 0, 0, 0, 2, 9, 9, 99, 3, 0, optEnd, 7})
	f.Add(wild, true)
	prev := sackful.Marshal(nil, src, dst)
	f.Fuzz(func(t *testing.T, data []byte, patch bool) {
		var opts TCPHeader
		_ = opts.parseOptions(data)

		if patch && len(data) >= baseHeaderLen {
			data = slices.Clone(data)
			data[16], data[17] = 0, 0
			binary.BigEndian.PutUint16(data[16:18], Checksum(data, src, dst))
		}
		want, wantPayload, wantErr := UnmarshalTCP(data, src, dst)

		var scratch TCPHeader
		if _, err := UnmarshalTCPInto(&scratch, prev, src, dst); err != nil {
			t.Fatal(err)
		}
		payload, err := UnmarshalTCPInto(&scratch, data, src, dst)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalTCPInto err %v, UnmarshalTCP err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !headersEqual(&scratch, want) {
			t.Fatalf("decoders disagree:\n into  %+v\n fresh %+v", scratch, *want)
		}
		if !slices.Equal(payload, wantPayload) {
			t.Fatalf("payloads differ: %x vs %x", payload, wantPayload)
		}

		out := make([]byte, want.WireLen(len(wantPayload)))
		want.MarshalTo(out, wantPayload, src, dst)
		again, againPayload, err := UnmarshalTCP(out, src, dst)
		if err != nil {
			t.Fatalf("re-marshalled %+v does not decode: %v", *want, err)
		}
		if !headersEqual(again, want) || !slices.Equal(againPayload, wantPayload) {
			t.Fatalf("re-marshal round trip changed the segment:\n got  %+v\n want %+v", *again, *want)
		}
	})
}
