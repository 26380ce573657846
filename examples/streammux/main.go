// Streammux: the paper's §5 forward pointer — "the transport layer can
// likely be further sublayered into a stream layer and a connection
// layer" — running live: a stream-multiplexing sublayer sits on top of
// the sublayered TCP, carrying three application streams over one
// connection across a lossy network. This is also the SST/Minion use
// case of §6, obtained by adding a sublayer instead of a new protocol.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/harness"
	"repro/internal/transport/streams"
)

func main() {
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: 9,
		Link: netsim.LinkConfig{
			Delay: 2 * time.Millisecond, LossProb: 0.04, ReorderProb: 0.04,
		},
		Client: harness.KindSublayeredNative,
		Server: harness.KindSublayeredNative,
	})

	names := []string{"logs", "metrics", "bulk"}
	want := map[uint32][]byte{}
	got := map[uint32][]byte{}
	eofs := 0

	if err := w.Server.Listen(80, func(e transport.Conn) {
		mux := streams.NewMux(e, false)
		mux.OnStream = func(s *streams.Stream) {
			s.OnReadable = func() {
				got[s.ID()] = append(got[s.ID()], s.ReadAll()...)
				if s.EOF() {
					eofs++
				}
			}
		}
		e.Callbacks(nil, func() { _ = mux.Pump() }, func() { mux.Flush() }, nil)
	}); err != nil {
		panic(err)
	}

	e, err := w.Client.Dial(w.ServerAddr(), 80)
	if err != nil {
		panic(err)
	}
	mux := streams.NewMux(e, true)
	rng := rand.New(rand.NewSource(9))
	e.Callbacks(func() {
		ss := make([]*streams.Stream, len(names))
		for i := range ss {
			ss[i] = mux.Open()
			fmt.Printf("opened stream %d (%s)\n", ss[i].ID(), names[i])
		}
		// Interleave writes: the mux frames them over one byte stream.
		for round := 0; round < 12; round++ {
			for _, s := range ss {
				chunk := make([]byte, 500+rng.Intn(3000))
				rng.Read(chunk)
				want[s.ID()] = append(want[s.ID()], chunk...)
				if err := s.Write(chunk); err != nil {
					panic(err)
				}
			}
		}
		for _, s := range ss {
			_ = s.Close()
		}
	}, nil, func() { mux.Flush() }, nil)

	harness.RunUntil(w.Sim, 5*time.Minute, func() bool { return eofs == len(names) })

	fmt.Printf("\nserver reassembled %d streams over one connection:\n", len(got))
	ids := make([]uint32, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Printf("  stream %d: %6d bytes, intact=%v\n", id, len(got[id]), bytes.Equal(got[id], want[id]))
	}
	fmt.Printf("all streams finished cleanly: %v (%d FINs)\n", eofs == len(got), eofs)
	fmt.Println("\nnote: this sublayer rides ABOVE ordering, so it removes application")
	fmt.Println("framing pain but not transport-level head-of-line blocking; removing")
	fmt.Println("that means placing the stream sublayer below OSR's ordering — QUIC's")
	fmt.Println("design, and exactly where the paper's agenda points next.")
}
