// Quickstart: compose the paper's Fig. 2 data-link sublayers — error
// recovery over error detection over framing over line coding — wire
// two stacks across a deliberately unreliable link, and send packets
// through. Everything arrives in order, exactly once.
//
// The link substrate is selectable: the same stacks run unchanged on
// the deterministic simulator, on an in-process channel network paced
// by the wall clock, or over real UDP sockets on loopback.
//
//	go run ./examples/quickstart               # deterministic simulator
//	go run ./examples/quickstart -backend=chan # wall-clock channels
//	go run ./examples/quickstart -backend=udp  # loopback UDP sockets
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/backends"
	"repro/internal/datalink"
	"repro/internal/netsim"
	"repro/internal/stuffing"
	"repro/internal/sublayer"
	"repro/internal/transport/harness"
)

func main() {
	backend := flag.String("backend", backends.Sim,
		`link substrate: "sim" (deterministic), "chan" (in-process wall clock), "udp" (loopback sockets)`)
	flag.Parse()

	b, err := backends.New(*backend, 42, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(2)
	}
	defer b.Close()

	// Pick an implementation for each sublayer. Swap any of them —
	// the other sublayers neither know nor care (litmus test T3).
	cfg := datalink.StackConfig{
		ARQ:      datalink.NewGoBackN(datalink.ARQConfig{Window: 8}),
		Checksum: datalink.CRC32{},
		Framer:   datalink.NewBitStuffFramer(stuffing.HDLC()),
		Code:     datalink.NRZI{},
	}

	messages := []string{
		"the flag is 01111110",        // bit-stuffing transparency
		"\x7e\x7e\x7e escape city",    // byte values that look like flags
		"sublayering: layers, nested", // plain text
	}

	// Construction and sends run under the backend lock: inline on the
	// simulator, serialized against timer callbacks on the real-time
	// backends.
	var alice, bob *sublayer.Stack
	var received []string
	b.Exec(func() {
		if alice, err = datalink.NewStack(b, "alice", cfg); err != nil {
			panic(err)
		}
		if bob, err = datalink.NewStack(b, "bob", cfg); err != nil {
			panic(err)
		}
		bob.SetApp(func(p *sublayer.PDU) { received = append(received, string(p.Data)) })
		alice.SetApp(func(p *sublayer.PDU) {})

		// A link that loses 20% of frames and flips bits in 10% of them.
		datalink.Connect(b, alice, bob, netsim.LinkConfig{
			Delay:       5 * time.Millisecond,
			LossProb:    0.20,
			CorruptProb: 0.10,
		})

		for i, m := range messages {
			alice.Send(sublayer.NewPDU([]byte(fmt.Sprintf("%d: %s", i, m))))
		}
	})
	fmt.Printf("backend: %s\n\n", b.Name())
	fmt.Print(alice.Describe())

	// Run until bob has every message, bounded by 10 s: virtual time on
	// the simulator (it finishes in microseconds), wall time on chan/udp.
	harness.RunUntil(b, 10*time.Second, func() bool { return len(received) == len(messages) })

	b.Exec(func() {
		fmt.Printf("\nreceived at bob, in order, exactly once:\n")
		for _, m := range received {
			fmt.Printf("  %q\n", m)
		}
		arq := alice.Layers()[0].(*datalink.GoBackN).Stats()
		fmt.Printf("\nrecovery work on a 20%%-loss link: %d retransmits, %d acks from bob\n",
			arq.Get("retransmits"), bob.Layers()[0].(*datalink.GoBackN).Stats().Get("acks_sent"))
	})
}
