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
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/command"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

// options is the command line, validated.
type options struct {
	routers int
	routing string
	loss    float64
	nbytes  int
	seed    int64
	// cutA–cutB is the link to fail mid-transfer; both zero means none.
	cutA, cutB network.Addr
	ring       bool
	traceN     int
}

// parseArgs reads and validates the command line. On a bad flag or
// value it writes the usage text to stderr and returns a
// command.UsageError that gives the reason (flag.ErrHelp for -h).
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("subnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.routers, "routers", 5, "routers in the line topology")
	fs.StringVar(&o.routing, "routing", "dv", "route computation: dv | ls")
	fs.Float64Var(&o.loss, "loss", 0.03, "per-link loss probability, 0 to 1")
	fs.IntVar(&o.nbytes, "bytes", 200_000, "bytes to transfer")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	cut := fs.String("cut", "", "cut link A:B (adjacent routers) after 10s of virtual time")
	fs.BoolVar(&o.ring, "ring", false, "close the line into a ring so failures reroute")
	fs.IntVar(&o.traceN, "trace", 0, "print the last N decoded packets seen at the server")
	if err := command.Parse(fs, args); err != nil {
		return nil, err
	}
	bad := func(format string, a ...any) (*options, error) {
		fs.Usage()
		return nil, command.Usage(fmt.Errorf(format, a...))
	}
	if o.routers < 2 {
		return bad("need at least 2 routers, got -routers %d", o.routers)
	}
	if o.routing != "dv" && o.routing != "ls" {
		return bad("unknown -routing %q (want dv or ls)", o.routing)
	}
	if !(o.loss >= 0 && o.loss <= 1) { // also rejects NaN
		return bad("-loss %v is not a probability in [0,1]", o.loss)
	}
	if o.nbytes < 0 {
		return bad("-bytes %d is negative", o.nbytes)
	}
	if *cut != "" {
		as, bs, _ := strings.Cut(*cut, ":")
		a, errA := strconv.Atoi(as)
		b, errB := strconv.Atoi(bs)
		if errA != nil || errB != nil {
			return bad("-cut %q is not A:B", *cut)
		}
		if a < 1 || a > o.routers || b < 1 || b > o.routers {
			return bad("-cut %d:%d names a router outside 1..%d", a, b, o.routers)
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo != 1 && !(o.closesRing() && lo == 1 && hi == o.routers) {
			return bad("-cut %d:%d: no link joins those routers", a, b)
		}
		o.cutA, o.cutB = network.Addr(a), network.Addr(b)
	}
	return &o, nil
}

// closesRing reports whether the run adds the N–1 edge to the line.
func (o *options) closesRing() bool { return o.ring && o.routers > 2 }

func main() { command.Main("subnet", run) }

// run builds the network, runs the transfer and writes the tour to
// stdout. A transfer that fails or arrives corrupted is an error.
func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		return err
	}

	link := netsim.LinkConfig{
		Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
		LossProb: o.loss, ReorderProb: o.loss,
	}
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: o.seed, Link: link, Hops: o.routers,
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	last := network.Addr(o.routers)
	if o.closesRing() {
		// Recorded in the topology so -cut can fail this edge too.
		w.Topo.Links[[2]network.Addr{last, 1}] = network.ConnectRouters(w.Sim, w.Topo.Routers[last], w.Topo.Routers[1], link, 1)
		w.Sim.RunFor(8 * time.Second) // let the new adjacency converge
	}
	if o.routing == "ls" {
		for _, r := range w.Topo.Routers {
			r.SwapComputer(network.NewLinkState(network.LSConfig{}))
		}
		w.Sim.RunFor(10 * time.Second)
	}

	fmt.Fprintf(stdout, "topology: line of %d routers, %s routing, %.0f%% loss per link\n",
		o.routers, w.Topo.Routers[1].Computer().Name(), o.loss*100)
	fmt.Fprintf(stdout, "routes at n1:\n%s\n", indent(network.FormatRoutes(w.Topo.Routers[1].Computer().Routes())))

	if o.cutA != 0 {
		w.Sim.Schedule(10*time.Second, func() {
			if w.Topo.CutLink(o.cutA, o.cutB) {
				fmt.Fprintf(stdout, "[%v] cut link %d–%d\n", w.Sim.Now(), o.cutA, o.cutB)
			}
		})
	}

	var rec *trace.Recorder
	if o.traceN > 0 {
		rec = trace.NewRecorder(w.Sim, o.traceN)
		rec.Attach(w.Topo.Routers[last])
	}

	data := make([]byte, o.nbytes)
	rand.New(rand.NewSource(o.seed)).Read(data)
	res, err := harness.RunTransfer(w, data, nil, time.Hour)
	if err != nil {
		return err
	}
	ok := bytes.Equal(res.ServerGot, data)
	fmt.Fprintf(stdout, "\ntransfer: %d bytes end to end, intact=%v, %v of virtual time\n",
		len(res.ServerGot), ok, res.Elapsed.Truncate(time.Millisecond))

	if sc, isSub := res.ClientConn.(*sublayered.Conn); isSub {
		st := sc.RD().Stats()
		fmt.Fprintf(stdout, "reliable delivery: %d segments, %d retransmits (%d fast, %d timeouts), %d acks\n",
			st["segments_sent"], st["retransmits"], st["fast_retransmits"], st["timeouts"], st["acks_sent"])
		cr := sc.CrossingStats()
		fmt.Fprintf(stdout, "sublayer crossings: app→OSR %d, OSR→RD %d, RD→OSR %d, DM up/down %d/%d\n",
			cr.AppToOSR.Value(), cr.OSRToRD.Value(),
			cr.RDToOSRAck.Value()+cr.RDToOSRDat.Value()+cr.RDToOSRLos.Value(),
			cr.FromDM.Value(), cr.ToDM.Value())
	}
	fmt.Fprintln(stdout, "\nper-router forwarding:")
	for i := 1; i <= o.routers; i++ {
		r := w.Topo.Routers[network.Addr(i)]
		st := r.Forwarder().Stats()
		fmt.Fprintf(stdout, "  n%-2d forwarded=%-6d local=%-6d noroute=%-4d ttl-expired=%d\n",
			i, st["forwarded"], st["local_delivered"], st["no_route"], st["ttl_expired"])
	}
	if rec != nil {
		fmt.Fprintf(stdout, "\nlast %d of %d packets at n%d:\n%s", len(rec.Events()), rec.Total(), o.routers, rec.Dump())
	}
	if !ok {
		return fmt.Errorf("server received %d bytes, not the %d sent", len(res.ServerGot), len(data))
	}
	return nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
