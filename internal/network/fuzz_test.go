package network

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalDatagram feeds hostile bytes to the data-datagram
// parser a router runs on every received packet. It must never panic;
// a datagram it accepts must marshal back to exactly the bytes it
// consumed, and its payload must not alias the input.
func FuzzUnmarshalDatagram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{classData})
	f.Add((&Datagram{Src: 1, Dst: 4, TTL: DefaultTTL, Proto: ProtoSubTCP, Payload: []byte("seg")}).Marshal())
	f.Add([]byte{1, 0, 2, 1}) // a hello, not a datagram
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		dg, err := UnmarshalDatagram(in)
		if err != nil {
			return
		}
		if got := dg.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("re-marshal differs:\n in  %x\n out %x", data, got)
		}
		if len(in) > HeaderLen {
			in[HeaderLen] ^= 0xff
			if !bytes.Equal(dg.Payload, data[HeaderLen:]) {
				t.Fatal("payload aliases the input buffer")
			}
		}
	})
}
