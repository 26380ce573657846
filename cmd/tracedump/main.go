// Command tracedump makes causal packet traces readable: it either
// replays a seeded lossy transfer through both TCP stacks and renders
// what happened to each packet, or pretty-prints a flight-recorder
// dump produced elsewhere (an E10 -trace artifact, say).
//
//	tracedump                          # run both stacks at seed 1, show drops
//	tracedump -seed 7 -loss 0.08       # a different world
//	tracedump -id 57                   # one packet's full lifecycle
//	tracedump -pcap out                # also write out-sublayered.pcapng etc.
//	tracedump -dump e10-hard-partition-sublayered.trace.json
//
// The default report has three parts: the lifecycle timeline of every
// packet the network killed (the causal chain from the transport's
// xmit through each router hop to the terminal verdict), a per-packet
// timeline for -id, and a cross-stack diff — the same seed's event
// counts per layer/kind/verdict side by side for the sublayered and
// monolithic stacks, which is the fastest way to see two
// implementations diverge under identical faults.
//
// Everything is a deterministic function of the flags: same arguments,
// byte-identical output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/command"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/pcap"
	"repro/internal/trace"
	"repro/internal/transport/harness"
)

func main() { command.Main("tracedump", run) }

// run parses args and writes the traces to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "simulation seed")
		loss     = fs.Float64("loss", 0.05, "per-packet loss probability on every link")
		hops     = fs.Int("hops", 3, "routers on the path (hosts at both ends)")
		size     = fs.Int("size", 32<<10, "client→server transfer size in bytes")
		id       = fs.Uint64("id", 0, "render the lifecycle of this packet ID only (0: all drops)")
		maxDrops = fs.Int("drops", 5, "max dropped-packet timelines to render per stack")
		pcapOut  = fs.String("pcap", "", "prefix for per-stack pcapng captures (<prefix>-<stack>.pcapng)")
		dumpIn   = fs.String("dump", "", "render this flight-recorder JSON instead of running a scenario")
		overlayL = fs.Bool("overlay", false, "trace a DHT lookup on a 5-member overlay ring instead of a transfer")
	)
	if err := command.Parse(fs, args); err != nil {
		return err
	}

	if *overlayL {
		return runOverlayTrace(stdout, *seed)
	}
	if *dumpIn != "" {
		return renderDumpFile(stdout, *dumpIn)
	}

	kinds := []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic}
	reports := make([]trace.Report, len(kinds))
	for i, kind := range kinds {
		col, err := runTraced(stdout, *seed, kind, *loss, *hops, *size, *pcapOut)
		if err != nil {
			return err
		}
		reports[i] = col.Report()
		fmt.Fprintf(stdout, "=== %s (seed %d, loss %.0f%%, %d hops, %d bytes) ===\n",
			kind, *seed, *loss*100, *hops, *size)
		if *id != 0 {
			ch := col.ChainOf(*id)
			if ch == nil {
				fmt.Fprintf(stdout, "  packet id=%d not found\n\n", *id)
				continue
			}
			renderChain(stdout, *ch)
		} else {
			renderDrops(stdout, reports[i], *maxDrops)
		}
		fmt.Fprintln(stdout)
	}
	renderDiff(stdout, kinds, reports)
	return nil
}

// runOverlayTrace renders a DHT lookup hop by hop: a 5-member overlay
// ring bootstraps and stores a key untraced, then the collector is
// armed and one Get runs — so every rendered chain is a packet of that
// single iterative lookup (FIND_NODE/GET requests and replies crossing
// the ring's routers), not bootstrap noise. docs/ARCHITECTURE.md's
// walkthrough 4 is this output.
func runOverlayTrace(w io.Writer, seed int64) error {
	const members = 5
	cl := harness.BuildCluster(harness.ClusterConfig{Seed: seed, Nodes: members, Kind: harness.KindSublayeredNative})
	defer cl.Close()
	dhts := make(map[network.Addr]*overlay.DHT)
	cl.Exec(func() {
		for _, h := range cl.Hosts {
			n, err := overlay.NewNode(h.B, h.Addr, h.Stack, overlay.NodeConfig{Seed: seed})
			if err != nil {
				panic(err)
			}
			dhts[h.Addr] = overlay.NewDHT(n, overlay.DHTConfig{})
			addr := h.Addr
			n.B.Schedule(time.Duration(addr)*50*time.Millisecond, func() {
				dhts[addr].Join([]network.Addr{1, network.Addr(int(addr)%members + 1)}, nil)
			})
		}
	})
	cl.Sim.RunFor(3 * time.Second)
	const key = "demo/motd"
	cl.Exec(func() { dhts[1].Store(key, []byte("hello overlay"), nil) })
	cl.Sim.RunFor(2 * time.Second)

	// Arm the tracer only now: everything it sees belongs to the Get.
	col := trace.NewCollector(trace.Options{RingCap: 1 << 14, DoneCap: 1 << 14, MaxChains: 1 << 12})
	var start netsim.Time
	rounds, found := 0, false
	cl.Exec(func() {
		cl.Sim.SetTracer(col)
		start = cl.Sim.Now()
		dhts[3].Get(key, func(_ []byte, r int, ok bool) { rounds, found = r, ok })
	})
	cl.Sim.RunFor(2 * time.Second)

	fmt.Fprintf(w, "=== overlay DHT lookup (seed %d, %d members, key %q from n3) ===\n", seed, members, key)
	rep := col.Report()
	chains := append(append([]trace.Chain(nil), rep.Completed...), rep.Live...)
	sort.Slice(chains, func(i, j int) bool {
		if len(chains[i].Events) == 0 || len(chains[j].Events) == 0 {
			return len(chains[i].Events) > len(chains[j].Events)
		}
		return chains[i].Events[0].At < chains[j].Events[0].At
	})
	shown := 0
	for _, ch := range chains {
		if ch.Flow == 0 || len(ch.Events) == 0 {
			continue // control plane (hellos, DV adverts)
		}
		_, _, sp, dp := netsim.UnpackFlow(ch.Flow)
		if sp != overlay.DefaultPort && dp != overlay.DefaultPort {
			continue
		}
		if ch.Events[0].At < start {
			continue
		}
		renderChain(w, ch)
		shown++
	}
	fmt.Fprintf(w, "\nlookup finished: found=%v in %d round(s), %d overlay packets traced\n", found, rounds, shown)
	return nil
}

// runTraced builds one lossy world, attaches a collector (and a pcap
// capture when requested), runs the transfer and returns the traces.
func runTraced(out io.Writer, seed int64, kind harness.Kind, loss float64, hops, size int, pcapPrefix string) (*trace.Collector, error) {
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: seed,
		Link: netsim.LinkConfig{Delay: time.Millisecond, LossProb: loss},
		Hops: hops, Client: kind, Server: kind,
	})
	col := trace.NewCollector(trace.Options{RingCap: 1 << 16, DoneCap: 1 << 16, MaxChains: 1 << 14})
	var capture bytes.Buffer
	if pcapPrefix != "" {
		pw, err := pcap.NewWriter(&capture)
		if err != nil {
			return nil, err
		}
		col.CaptureTo(pw)
	}
	w.Sim.SetTracer(col)
	payload := bytes.Repeat([]byte{0xA5}, size)
	if _, err := harness.RunTransfer(w, payload, []byte("done"), 2*time.Minute); err != nil {
		return nil, err
	}
	if pcapPrefix != "" {
		name := fmt.Sprintf("%s-%s.pcapng", pcapPrefix, kind)
		if err := os.WriteFile(name, capture.Bytes(), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", name, capture.Len())
	}
	return col, nil
}

// renderDrops prints the causal chain of every packet a link or router
// killed — the injected-drop reconstruction the tracing subsystem
// exists for.
func renderDrops(w io.Writer, rep trace.Report, max int) {
	chains := append(append([]trace.Chain(nil), rep.Completed...), rep.Live...)
	drops := 0
	for _, ch := range chains {
		if len(ch.Events) == 0 {
			continue
		}
		last := ch.Events[len(ch.Events)-1]
		switch last.Verdict {
		case netsim.VerdictLost, netsim.VerdictQueueDrop, netsim.VerdictDownDrop,
			netsim.VerdictTTLExpired, netsim.VerdictNoRoute, netsim.VerdictBlackholed:
		default:
			continue
		}
		// Control-plane datagrams die too (a hello on a flapping link);
		// the transport's lost data is the interesting part.
		if ch.Flow == 0 {
			continue
		}
		drops++
		if drops > max {
			continue
		}
		renderChain(w, ch)
	}
	if drops == 0 {
		fmt.Fprintln(w, "  no transport packets were dropped")
	} else if drops > max {
		fmt.Fprintf(w, "  ... and %d more dropped packets (raise -drops)\n", drops-max)
	}
	fmt.Fprintf(w, "  %d events total, %d transport packets dropped in-network\n", rep.Total, drops)
}

// renderChain prints one packet's lifecycle timeline with times
// relative to its first event.
func renderChain(w io.Writer, ch trace.Chain) {
	fmt.Fprintf(w, "  packet id=%d%s\n", ch.ID, flowString(ch.Flow, ch.Seq))
	if len(ch.Events) == 0 {
		return
	}
	t0 := ch.Events[0].At
	for _, ev := range ch.Events {
		mark := ""
		if ev.Verdict != "" {
			mark = "  [" + ev.Verdict + "]"
		}
		extra := ""
		if ev.TTL > 0 {
			extra = fmt.Sprintf(" ttl=%d", ev.TTL)
		}
		fmt.Fprintf(w, "    %+10v  %-8s %-9s %-10s len=%d%s%s\n",
			time.Duration(ev.At-t0), ev.Node, ev.Layer, ev.Kind, ev.Len, extra, mark)
	}
	if ch.Truncated > 0 {
		fmt.Fprintf(w, "    ... %d further events not retained\n", ch.Truncated)
	}
}

// flowString renders the packed 4-tuple correlator.
func flowString(flow uint64, seq uint32) string {
	if flow == 0 {
		return ""
	}
	sa, da, sp, dp := netsim.UnpackFlow(flow)
	return fmt.Sprintf("  flow n%d:%d→n%d:%d seq=%d", sa, sp, da, dp, seq)
}

// renderDiff prints the cross-stack comparison: how often each
// (layer, kind, verdict) event fired under each stack for the same
// seed and faults.
func renderDiff(w io.Writer, kinds []harness.Kind, reports []trace.Report) {
	counts := make([]map[string]int, len(reports))
	keys := map[string]bool{}
	for i, rep := range reports {
		counts[i] = map[string]int{}
		for _, ev := range eventsOf(rep) {
			k := ev.Layer + "/" + ev.Kind
			if ev.Verdict != "" {
				k += "/" + ev.Verdict
			}
			counts[i][k]++
			keys[k] = true
		}
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	fmt.Fprintf(w, "=== cross-stack diff (event counts per layer/kind/verdict) ===\n")
	fmt.Fprintf(w, "  %-36s", "event")
	for _, k := range kinds {
		fmt.Fprintf(w, " %12s", k)
	}
	fmt.Fprintln(w)
	for _, key := range ordered {
		fmt.Fprintf(w, "  %-36s", key)
		same := true
		for i := range reports {
			fmt.Fprintf(w, " %12d", counts[i][key])
			if counts[i][key] != counts[0][key] {
				same = false
			}
		}
		if !same {
			fmt.Fprint(w, "   ≠")
		}
		fmt.Fprintln(w)
	}
}

// eventsOf flattens every retained event of a report: the chains first
// (they hold the full per-packet history), then ring events that never
// joined a chain (ID 0: connection-level sends, acks, timeouts).
func eventsOf(rep trace.Report) []netsim.TraceEvent {
	var out []netsim.TraceEvent
	for _, ch := range rep.Completed {
		out = append(out, ch.Events...)
	}
	for _, ch := range rep.Live {
		out = append(out, ch.Events...)
	}
	for _, ev := range rep.Recent {
		if ev.ID == 0 {
			out = append(out, ev)
		}
	}
	return out
}

// renderDumpFile pretty-prints a flight-recorder JSON artifact.
func renderDumpFile(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep trace.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	fmt.Fprintf(w, "=== flight recorder dump: %s ===\n", path)
	fmt.Fprintf(w, "  %d events observed, %d aged out of the ring, %d chains evicted\n",
		rep.Total, rep.RingDropped, rep.Evicted)
	for i, d := range rep.Dumps {
		fmt.Fprintf(w, "\n-- snapshot %d: %s/%s at %v on %s %s\n",
			i, d.Reason.Kind, orDash(d.Reason.Verdict), time.Duration(d.Reason.At), d.Reason.Node, d.Note)
		if d.Chain != nil {
			fmt.Fprintln(w, "   offending packet:")
			renderChain(w, *d.Chain)
		}
		fmt.Fprintf(w, "   recent window: %d events\n", len(d.Recent))
	}
	if len(rep.Dumps) == 0 {
		fmt.Fprintln(w, "  no violation snapshots; rendering retained drop chains instead")
		renderDrops(w, rep, 5)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return strings.TrimSpace(s)
}
