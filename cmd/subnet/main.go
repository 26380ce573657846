// Command subnet builds a simulated multi-hop network, runs the
// sublayered control plane (hello + routing) and a sublayered-TCP
// transfer across it, and prints per-layer statistics — a one-command
// tour of the whole system.
//
//	subnet                       # 5-router line, DV routing, 200 KB transfer
//	subnet -routers 8 -routing ls -loss 0.08 -bytes 1000000
//	subnet -ring -cut 2:3        # fail a link mid-transfer and reroute the long way
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

func main() {
	var (
		routers = flag.Int("routers", 5, "routers in the line topology")
		routing = flag.String("routing", "dv", "route computation: dv | ls")
		loss    = flag.Float64("loss", 0.03, "per-link loss probability")
		nbytes  = flag.Int("bytes", 200_000, "bytes to transfer")
		seed    = flag.Int64("seed", 1, "simulation seed")
		cut     = flag.String("cut", "", "cut link A:B after 10s of virtual time")
		ring    = flag.Bool("ring", false, "close the line into a ring so failures reroute")
		traceN  = flag.Int("trace", 0, "print the last N decoded packets seen at the server")
	)
	flag.Parse()
	if *routers < 2 {
		fmt.Fprintln(os.Stderr, "subnet: need at least 2 routers")
		os.Exit(2)
	}

	link := netsim.LinkConfig{
		Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
		LossProb: *loss, ReorderProb: *loss,
	}
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: *seed, Link: link, Hops: *routers,
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	if *ring && *routers > 2 {
		network.ConnectRouters(w.Sim, w.Topo.Routers[network.Addr(*routers)], w.Topo.Routers[1], link, 1)
		w.Sim.RunFor(8 * time.Second) // let the new adjacency converge
	}
	if *routing == "ls" {
		for _, r := range w.Topo.Routers {
			r.SwapComputer(network.NewLinkState(network.LSConfig{}))
		}
		w.Sim.RunFor(10 * time.Second)
	}

	fmt.Printf("topology: line of %d routers, %s routing, %.0f%% loss per link\n",
		*routers, w.Topo.Routers[1].Computer().Name(), *loss*100)
	fmt.Printf("routes at n1:\n%s\n", indent(network.FormatRoutes(w.Topo.Routers[1].Computer().Routes())))

	if *cut != "" {
		var a, b int
		if _, err := fmt.Sscanf(*cut, "%d:%d", &a, &b); err != nil {
			fmt.Fprintln(os.Stderr, "subnet: -cut wants A:B")
			os.Exit(2)
		}
		w.Sim.Schedule(10*time.Second, func() {
			if w.Topo.CutLink(network.Addr(a), network.Addr(b)) {
				fmt.Printf("[%v] cut link %d–%d\n", w.Sim.Now(), a, b)
			}
		})
	}

	var rec *trace.Recorder
	if *traceN > 0 {
		rec = trace.NewRecorder(w.Sim, *traceN)
		rec.Attach(w.Topo.Routers[network.Addr(*routers)])
	}

	data := make([]byte, *nbytes)
	rand.New(rand.NewSource(*seed)).Read(data)
	res, err := harness.RunTransfer(w, data, nil, time.Hour)
	if err != nil {
		fmt.Fprintln(os.Stderr, "subnet:", err)
		os.Exit(1)
	}
	ok := bytes.Equal(res.ServerGot, data)
	fmt.Printf("\ntransfer: %d bytes end to end, intact=%v, %v of virtual time\n",
		len(res.ServerGot), ok, res.Elapsed.Truncate(time.Millisecond))

	if sc, isSub := res.ClientConn.(*sublayered.Conn); isSub {
		st := sc.RD().Stats()
		fmt.Printf("reliable delivery: %d segments, %d retransmits (%d fast, %d timeouts), %d acks\n",
			st["segments_sent"], st["retransmits"], st["fast_retransmits"], st["timeouts"], st["acks_sent"])
		cr := sc.CrossingStats()
		fmt.Printf("sublayer crossings: app→OSR %d, OSR→RD %d, RD→OSR %d, DM up/down %d/%d\n",
			cr.AppToOSR.Value(), cr.OSRToRD.Value(),
			cr.RDToOSRAck.Value()+cr.RDToOSRDat.Value()+cr.RDToOSRLos.Value(),
			cr.FromDM.Value(), cr.ToDM.Value())
	}
	fmt.Println("\nper-router forwarding:")
	for i := 1; i <= *routers; i++ {
		r := w.Topo.Routers[network.Addr(i)]
		st := r.Forwarder().Stats()
		fmt.Printf("  n%-2d forwarded=%-6d local=%-6d noroute=%-4d ttl-expired=%d\n",
			i, st["forwarded"], st["local_delivered"], st["no_route"], st["ttl_expired"])
	}
	if rec != nil {
		fmt.Printf("\nlast %d packets at n%d:\n%s", len(rec.Events()), *routers, rec.Dump())
	}
	if !ok {
		os.Exit(1)
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
