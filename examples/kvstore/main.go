// Kvstore: a tiny distributed key-value store on the overlay DHT — a
// ring of members each running the full stack (transport sublayers,
// distance-vector routing, the overlay node runtime), a Kademlia-style
// iterative lookup locating the K members closest to each key, and
// replicated STOREs and GETs riding request/response RPC with
// deadlines and retries over transport.Conn.
//
// The substrate is selectable, and the protocol code cannot tell the
// difference — state machines run on backend timers only:
//
//	go run ./examples/kvstore               # deterministic simulator
//	go run ./examples/kvstore -backend=chan # wall-clock channel network
//	go run ./examples/kvstore -backend=udp  # loopback UDP sockets
//
// On the simulator the run is byte-deterministic: same seed, same
// hops, same replica sets. See docs/OVERLAYS.md for the protocol.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/transport/harness"
)

func main() {
	backend := flag.String("backend", "sim",
		`substrate: "sim" (deterministic), "chan" (in-process wall clock), "udp" (loopback sockets)`)
	nodes := flag.Int("nodes", 8, "cluster size (ring members)")
	seed := flag.Int64("seed", 42, "world seed (sim runs are byte-deterministic per seed)")
	flag.Parse()

	if *backend == "udp" && !harness.UDPAvailable() {
		fmt.Fprintln(os.Stderr, "kvstore: loopback UDP sockets unavailable here; try -backend=chan")
		os.Exit(2)
	}

	// One transport stack per ring member, control plane converged.
	cl := harness.BuildCluster(harness.ClusterConfig{
		Seed: *seed, Backend: *backend, Nodes: *nodes,
		Kind: harness.KindSublayeredNative,
	})
	defer cl.Close()

	// Each phase runs the world until its outcome holds: virtually on
	// the simulator, against the wall clock on chan/udp — same call
	// either way.
	const budget = 30 * time.Second

	// Bootstrap: an overlay node and a DHT on every member, joins
	// staggered so the routing tables fill from a live network.
	dhts := make(map[network.Addr]*overlay.DHT)
	joined := 0
	cl.Exec(func() {
		for _, h := range cl.Hosts {
			n, err := overlay.NewNode(h.B, h.Addr, h.Stack, overlay.NodeConfig{Seed: *seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "kvstore: %v\n", err)
				os.Exit(1)
			}
			dhts[h.Addr] = overlay.NewDHT(n, overlay.DHTConfig{})
			addr, succ := h.Addr, network.Addr(int(h.Addr)%*nodes+1)
			n.B.Schedule(time.Duration(addr)*50*time.Millisecond, func() {
				dhts[addr].Join([]network.Addr{1, succ}, func() { joined++ })
			})
		}
	})
	harness.RunUntil(cl.Sim, budget, func() bool { return joined == *nodes })

	// Every member stores one key; the ring successor reads it back.
	type op struct {
		key         string
		value       []byte
		reader      network.Addr
		rounds      int
		found, done bool
		valueOK     bool
	}
	ops := make([]*op, *nodes)
	stored := 0
	cl.Exec(func() {
		for i, h := range cl.Hosts {
			o := &op{
				key:    fmt.Sprintf("member-%d/motd", h.Addr),
				value:  fmt.Appendf(nil, "hello from %d", h.Addr),
				reader: network.Addr(int(h.Addr)%*nodes + 1),
			}
			ops[i] = o
			dhts[h.Addr].Store(o.key, o.value, func(int, int) { stored++ })
		}
	})
	harness.RunUntil(cl.Sim, budget, func() bool { return stored == len(ops) })

	cl.Exec(func() {
		for _, o := range ops {
			o := o
			dhts[o.reader].Get(o.key, func(value []byte, rounds int, found bool) {
				o.rounds, o.found, o.done = rounds, found, true
				o.valueOK = found && string(value) == string(o.value)
			})
		}
	})
	harness.RunUntil(cl.Sim, budget, func() bool {
		for _, o := range ops {
			if !o.done {
				return false
			}
		}
		return true
	})

	bad := 0
	cl.Exec(func() {
		for _, o := range ops {
			status := "MISS"
			if o.valueOK {
				status = "ok"
			} else {
				bad++
			}
			fmt.Printf("get %-16s from n%-2d -> %-4s (%d lookup rounds)\n", o.key, o.reader, status, o.rounds)
		}
	})
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "kvstore: %d of %d gets failed\n", bad, len(ops))
		os.Exit(1)
	}
	fmt.Printf("kvstore: %d keys stored and read back on %q with %d members\n", len(ops), *backend, *nodes)
}
