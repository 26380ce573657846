package faults

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/verify"
)

// buildLine returns a 1–…–n line topology with fast control-plane
// timers, converged and ready for fault injection.
func buildLine(t *testing.T, seed int64, n int, link netsim.LinkConfig) (*netsim.Simulator, *network.Topology) {
	t.Helper()
	sim := netsim.NewSimulator(seed)
	var edges []network.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, network.Edge{A: network.Addr(i), B: network.Addr(i + 1), Cost: 1})
	}
	topo := network.BuildTopology(sim, edges, link,
		network.NeighborConfig{HelloInterval: 200 * time.Millisecond},
		func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		})
	sim.RunFor(5 * time.Second)
	return sim, topo
}

func TestPartitionAndHeal(t *testing.T) {
	sim, topo := buildLine(t, 1, 4, netsim.LinkConfig{Delay: time.Millisecond})
	inj := New(sim, topo, 1)
	inj.Apply(Script{Name: "split", Steps: []Step{
		{At: time.Second, For: 2 * time.Second, Fault: Partition{Nodes: []network.Addr{3, 4}}},
	}})

	sim.RunFor(1500 * time.Millisecond) // mid-partition
	cut := topo.Links[[2]network.Addr{2, 3}]
	keep := topo.Links[[2]network.Addr{3, 4}]
	if cut.AB.Up() || cut.BA.Up() {
		t.Error("boundary link 2-3 still up during partition")
	}
	if !keep.AB.Up() {
		t.Error("internal link 3-4 cut by partition of {3,4}")
	}

	sim.RunFor(2 * time.Second) // past the heal
	if !cut.AB.Up() || !cut.BA.Up() {
		t.Error("boundary link not restored after heal")
	}
	st := inj.Stats()
	if st["partitions"] != 1 || st["heals"] != 1 {
		t.Errorf("partitions=%d heals=%d, want 1/1", st["partitions"], st["heals"])
	}
}

func TestFlapAndRandomFlapsDeterministic(t *testing.T) {
	run := func(seed int64) (uint64, uint64) {
		sim, topo := buildLine(t, 7, 3, netsim.LinkConfig{Delay: time.Millisecond})
		inj := New(sim, topo, seed)
		inj.Apply(Script{Name: "flappy", Steps: []Step{
			{At: 0, For: 10 * time.Second, Fault: RandomLinkFlaps{
				A: 1, B: 2, N: 5, MinDown: 50 * time.Millisecond, MaxDown: 300 * time.Millisecond,
			}},
			{At: time.Second, For: 100 * time.Millisecond, Fault: LinkFlap{A: 2, B: 3}},
		}})
		sim.RunFor(12 * time.Second)
		st := inj.Stats()
		return st["link_cuts"], st["link_restores"]
	}
	c1, r1 := run(42)
	c2, r2 := run(42)
	if c1 != c2 || r1 != r2 {
		t.Errorf("same seed diverged: cuts %d/%d restores %d/%d", c1, c2, r1, r2)
	}
	if c1 != 6 || r1 != 6 {
		t.Errorf("cuts=%d restores=%d, want 6/6 (5 random + 1 scripted)", c1, r1)
	}
}

func TestGilbertElliottOverlayAndRestore(t *testing.T) {
	run := func(seed int64) (uint64, uint64) {
		sim, topo := buildLine(t, 3, 2, netsim.LinkConfig{Delay: time.Millisecond})
		inj := New(sim, topo, seed)
		inj.Apply(Script{Name: "bursty", Steps: []Step{
			{At: 0, For: 5 * time.Second, Fault: BurstyLoss{A: 1, B: 2, GE: GEConfig{
				MeanGood: 200 * time.Millisecond, MeanBad: 100 * time.Millisecond, LossBad: 1,
			}}},
		}})
		link := topo.Links[[2]network.Addr{1, 2}].AB
		sim.Every(10*time.Millisecond, func() { link.Send([]byte("probe")) })
		sim.RunFor(6 * time.Second)
		return inj.Stats()["ge_transitions"], link.Stats()["lost"]
	}
	t1, l1 := run(5)
	t2, l2 := run(5)
	if t1 != t2 || l1 != l2 {
		t.Errorf("same seed diverged: transitions %d/%d lost %d/%d", t1, t2, l1, l2)
	}
	if t1 == 0 {
		t.Error("no GE transitions in 5s with 200ms/100ms dwell")
	}
	if l1 == 0 {
		t.Error("no loss despite LossBad=1 bad states")
	}
	// After the window the link's own (lossless) config decides again.
	sim, topo := buildLine(t, 3, 2, netsim.LinkConfig{Delay: time.Millisecond})
	inj := New(sim, topo, 5)
	inj.Apply(Script{Steps: []Step{
		{At: 0, For: time.Second, Fault: BurstyLoss{A: 1, B: 2, GE: GEConfig{LossBad: 1}}},
	}})
	sim.RunFor(10 * time.Second)
	if lost := probe(sim, topo.Links[[2]network.Addr{1, 2}].AB, 100)["lost"]; lost != 0 {
		t.Errorf("lost %d of 100 frames after the GE window, want 0", lost)
	}
}

// bareLink returns a simulator and a topology holding only a 1–2
// duplex, so the only traffic on it is what a test sends.
func bareLink(seed int64, cfg netsim.LinkConfig) (*netsim.Simulator, *network.Topology, *netsim.Duplex) {
	sim := netsim.NewSimulator(seed)
	sink := func(*netsim.Packet) {}
	d := netsim.NewDuplexOn(sim, cfg, sink, sink)
	return sim, &network.Topology{Sim: sim, Links: map[[2]network.Addr]*netsim.Duplex{{1, 2}: d}}, d
}

// probe sends n frames on p, one every 10 ms, and returns what the
// link's counters gained meanwhile.
func probe(sim *netsim.Simulator, p netsim.Port, n int) map[string]uint64 {
	before := p.Stats()
	for i := 0; i < n; i++ {
		p.Send([]byte("probe"))
		sim.RunFor(10 * time.Millisecond)
	}
	gained := p.Stats()
	for k, v := range before {
		gained[k] -= v
	}
	return gained
}

func TestGEWindowEndsAtItsStep(t *testing.T) {
	// A Gilbert–Elliott window ends at its step's end, not at the
	// chain's first state change after it. Minute-long dwells keep a
	// chain in its first state for the whole test.
	slow := GEConfig{MeanGood: time.Minute, MeanBad: time.Minute}
	t.Run("one-window", func(t *testing.T) {
		sim, topo, d := bareLink(3, netsim.LinkConfig{Delay: time.Millisecond})
		ge := slow
		ge.LossGood, ge.LossBad = 1, 1
		New(sim, topo, 3).MustApply(Script{Steps: []Step{
			{At: 0, For: time.Second, Fault: BurstyLoss{A: 1, B: 2, GE: ge}},
		}})
		sim.RunFor(10 * time.Millisecond) // the window opens in an event at 0
		if lost := probe(sim, d.AB, 50)["lost"]; lost != 50 {
			t.Errorf("lost %d of 50 frames inside the window, want 50", lost)
		}
		sim.RunFor(time.Second)
		if lost := probe(sim, d.AB, 100)["lost"]; lost != 0 {
			t.Errorf("lost %d of 100 frames after the window, want 0", lost)
		}
	})
	t.Run("back-to-back", func(t *testing.T) {
		// The first window's end must not reach into the second's.
		sim, topo, d := bareLink(4, netsim.LinkConfig{Delay: time.Millisecond})
		half := slow
		half.LossGood, half.LossBad = 0.5, 0.5
		New(sim, topo, 4).MustApply(Script{Steps: []Step{
			{At: 0, For: time.Second, Fault: BurstyLoss{A: 1, B: 2, GE: GEConfig{LossBad: 1}}},
			{At: time.Second, For: time.Minute, Fault: BurstyLoss{A: 1, B: 2, GE: half}},
		}})
		sim.RunFor(3 * time.Second)
		if lost := probe(sim, d.AB, 200)["lost"]; lost < 60 || lost > 140 {
			t.Errorf("lost %d of 200 frames in the second window, want about 100", lost)
		}
	})
}

func TestOverlaysCloseOutOfOrder(t *testing.T) {
	// A bursty-loss window and a reorder window overlap on one link
	// and close first-opened-first, so the inner overlay closes while
	// the outer one is open. Each then decides only its own fate while
	// open, and once both closed the link's frames meet the same fates
	// as on an unfaulted twin at the same seed.
	run := func(faulted bool) (mid, after map[string]uint64) {
		sim, topo, d := bareLink(11, netsim.LinkConfig{Delay: time.Millisecond})
		if faulted {
			New(sim, topo, 11).MustApply(Script{Steps: []Step{
				{At: 0, For: 3 * time.Second, Fault: BurstyLoss{A: 1, B: 2, GE: GEConfig{LossBad: 1}}},
				{At: time.Second, For: 3 * time.Second, Fault: Reorder{A: 1, B: 2, Prob: 0.5}},
			}})
		}
		probe(sim, d.AB, 310)      // [0, 3.1s): both windows open in turn
		mid = probe(sim, d.AB, 80) // [3.1s, 3.9s): reordering only
		probe(sim, d.AB, 110)      // past both ends
		return mid, probe(sim, d.AB, 300)
	}
	mid, after := run(true)
	if mid["lost"] != 0 || mid["reordered"] == 0 {
		t.Errorf("between the two ends: lost %d, reordered %d; want 0 and > 0", mid["lost"], mid["reordered"])
	}
	_, twin := run(false)
	for _, k := range []string{"lost", "reordered", "delivered"} {
		if after[k] != twin[k] {
			t.Errorf("%s = %d after both windows closed, unfaulted twin %d", k, after[k], twin[k])
		}
	}
}

func TestRouterCrashRestartReconverges(t *testing.T) {
	sim, topo := buildLine(t, 9, 3, netsim.LinkConfig{Delay: time.Millisecond})
	var got []byte
	topo.Routers[3].Handle(network.Proto(99), func(dg *network.Datagram) { got = append([]byte(nil), dg.Payload...) })

	inj := New(sim, topo, 9)
	inj.Apply(Script{Name: "crash", Steps: []Step{
		{At: 0, For: 2 * time.Second, Fault: RouterCrash{Addr: 2}},
	}})
	// During the outage 1 cannot reach 3.
	sim.RunFor(time.Second)
	if err := topo.Routers[1].Send(3, network.Proto(99), []byte("early")); err == nil {
		sim.RunFor(100 * time.Millisecond)
		if string(got) == "early" {
			t.Error("datagram crossed a crashed router")
		}
	}
	// After restart the fresh computer must reconverge end to end.
	sim.RunFor(8 * time.Second)
	if err := topo.Routers[1].Send(3, network.Proto(99), []byte("late")); err != nil {
		t.Fatalf("no route after reconvergence: %v", err)
	}
	sim.RunFor(time.Second)
	if string(got) != "late" {
		t.Errorf("got %q after crash-restart, want %q", got, "late")
	}
	st := inj.Stats()
	if st["crashes"] != 1 || st["restarts"] != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", st["crashes"], st["restarts"])
	}
}

func TestBlackholeDropsDataKeepsControl(t *testing.T) {
	sim, topo := buildLine(t, 11, 3, netsim.LinkConfig{Delay: time.Millisecond})
	var got []byte
	topo.Routers[3].Handle(network.Proto(99), func(dg *network.Datagram) { got = append([]byte(nil), dg.Payload...) })

	inj := New(sim, topo, 11)
	inj.Apply(Script{Name: "hole", Steps: []Step{
		{At: 0, For: 2 * time.Second, Fault: Blackhole{At: 2}},
	}})
	sim.RunFor(time.Second)
	if err := topo.Routers[1].Send(3, network.Proto(99), []byte("swallowed")); err != nil {
		t.Fatalf("route lost during blackhole — control plane should be unaffected: %v", err)
	}
	sim.RunFor(500 * time.Millisecond)
	if len(got) != 0 {
		t.Errorf("datagram %q crossed a blackholing router", got)
	}
	if bh := topo.Routers[2].Forwarder().Stats()["blackholed"]; bh == 0 {
		t.Error("blackholed counter not incremented")
	}
	// Cleared: traffic flows again.
	sim.RunFor(time.Second)
	if err := topo.Routers[1].Send(3, network.Proto(99), []byte("through")); err != nil {
		t.Fatalf("send after clear: %v", err)
	}
	sim.RunFor(500 * time.Millisecond)
	if string(got) != "through" {
		t.Errorf("got %q after blackhole cleared, want %q", got, "through")
	}
}

func TestWatchdog(t *testing.T) {
	w := NewWatchdog()
	sent := []byte("abcdefgh")
	if !w.CheckPrefix("ok", sent, sent[:4]) || !w.CheckComplete("ok", sent, sent) {
		t.Fatalf("clean streams flagged: %v", w.Violations())
	}
	if w.CheckPrefix("div", sent, []byte("abXd")) {
		t.Error("divergent stream passed")
	}
	if w.CheckPrefix("over", sent, append(append([]byte{}, sent...), 'x')) {
		t.Error("over-delivery passed")
	}
	if w.CheckComplete("short", sent, sent[:4]) {
		t.Error("short stream passed CheckComplete")
	}
	ck := verify.NewChecker(verify.ModeRecord)
	ck.Check(true, "fine", "")
	if !w.CheckContracts("c", ck) {
		t.Error("clean checker flagged")
	}
	ck.Check(false, "broken", "detail %d", 7)
	if w.CheckContracts("c", ck) {
		t.Error("violated checker passed")
	}
	if w.OK() {
		t.Error("OK() true after violations")
	}
	if len(w.Violations()) != 4 {
		t.Errorf("violations=%d, want 4", len(w.Violations()))
	}
}
