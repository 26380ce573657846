package harness

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
)

// TestWallClockCadenceConverges pins how long the wall-clock
// control-plane cadence takes to route a cluster, in virtual time so a
// host's speed cannot move it: rpc-rt's 4-ring (1 ms links) built with
// buildTopology's real-time cadence on the simulator, stepped one event
// at a time until every router routes to every member. The hello lands
// at 1 ms, the triggered advert leaves one 10 ms hold-down later, and
// the last route arrives about 12 ms in; a fixed 50 ms hold-down made
// it 52 ms.
func TestWallClockCadenceConverges(t *testing.T) {
	const nodes = 4
	link := netsim.LinkConfig{Delay: time.Millisecond}
	sim := netsim.NewSimulator(1)
	topo := buildTopology(sim, true, ringEdges(nodes, link), link, nil)
	members := make([]network.Addr, nodes)
	for i := range members {
		members[i] = network.Addr(i + 1)
	}
	for !routed(topo, members) {
		if !sim.Step() {
			t.Fatal("the event store drained before the ring converged")
		}
	}
	if at := time.Duration(sim.Now()); at > 15*time.Millisecond {
		t.Errorf("the ring converged at %v of virtual time, want ≤ 15ms", at)
	} else {
		t.Logf("converged at %v", at)
	}
}
