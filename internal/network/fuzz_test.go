package network

import (
	"bytes"
	"testing"

	"repro/internal/bufpool"
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

// FuzzLinkState feeds hostile bytes to the control-plane parsers a
// router runs on every hello and routing packet: the hello, the
// routing envelope, and the link-state PDU inside it (tried on the
// envelope's body and on the raw bytes). None may panic. A hello or
// envelope it accepts must marshal back to the bytes it consumed, and
// an accepted LSP to body[:8+3n], its header and n neighbour records.
func FuzzLinkState(f *testing.F) {
	lspBody := marshalLSP(&lsp{origin: 5, seq: 123456, neighbors: []lsNeighbor{{2, 1}, {9, 4}}})
	f.Add([]byte{})
	f.Add([]byte{classHello, 0, 42, 7})
	f.Add(append([]byte{classRouting, 0, 5}, lspBody...))
	f.Add(append([]byte{classRouting, 0, 5}, lspBody[:9]...)) // truncated neighbour list
	f.Add([]byte{classRouting, 0, 5, routingProtoDV, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if sender, cost, err := unmarshalHello(data); err == nil {
			got := marshalHello(sender, cost)
			if !bytes.Equal(got, data[:helloLen]) {
				t.Fatalf("hello re-marshal differs:\n in  %x\n out %x", data[:helloLen], got)
			}
			bufpool.Put(got)
		}
		bodies := [][]byte{data}
		if sender, body, err := unmarshalRouting(data); err == nil {
			got := marshalRouting(sender, body)
			if !bytes.Equal(got, data) {
				t.Fatalf("routing re-marshal differs:\n in  %x\n out %x", data, got)
			}
			bufpool.Put(got)
			bodies = append(bodies, body)
		}
		for _, body := range bodies {
			p, err := unmarshalLSP(body)
			if err != nil {
				continue
			}
			want := body[:8+3*len(p.neighbors)]
			if got := marshalLSP(p); !bytes.Equal(got, want) {
				t.Fatalf("LSP re-marshal differs:\n in  %x\n out %x", want, got)
			}
		}
	})
}
