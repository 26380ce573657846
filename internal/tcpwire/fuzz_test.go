package tcpwire

import (
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
