package harness

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/transport/sublayered"
)

// TestViewsMatchRegisteredNames pins "every component lists its
// instruments once": in one sim world built with a registry, each
// component's Stats() view has exactly the leaf names the registry
// holds under that component's scope — no key the snapshot lacks
// (a view-only alias) and no registered leaf the view omits.
func TestViewsMatchRegisteredNames(t *testing.T) {
	reg := metrics.New()
	w := BuildWorld(WorldConfig{Seed: 3, Hops: 3, Client: KindSublayeredShim, Server: KindMonolithic, Metrics: reg})
	defer w.Close()
	inj := faults.New(w.Sim, w.Topo, 3)
	inj.BindMetrics(reg.Scope("faults"))
	res, err := RunTransfer(w, []byte("ping"), []byte("pong"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	check := func(scope string, view metrics.View) {
		t.Helper()
		var registered, viewed []string
		for _, s := range snap.Samples {
			if leaf, ok := strings.CutPrefix(s.Name, scope+"/"); ok && !strings.Contains(leaf, "/") {
				registered = append(registered, leaf)
			}
		}
		for k := range view {
			viewed = append(viewed, k)
		}
		sort.Strings(viewed) // snapshot samples are already sorted by name
		if len(registered) == 0 {
			t.Errorf("%s: nothing registered under this scope", scope)
		}
		if fmt.Sprint(viewed) != fmt.Sprint(registered) {
			t.Errorf("%s: view keys %v, registered leaves %v", scope, viewed, registered)
		}
	}

	for _, d := range w.Topo.Links {
		check("netsim/"+d.AB.Name(), d.AB.Stats())
		check("netsim/"+d.BA.Name(), d.BA.Stats())
	}
	for addr, r := range w.Topo.Routers {
		router := fmt.Sprintf("n%d/network/", addr)
		check(router+"forwarding", r.Forwarder().Stats())
		check(router+"neighbor", r.Neighbors().Stats())
		check(router+"routing/distance-vector", r.Computer().(*network.DistanceVector).Stats())
	}
	check("faults", inj.Stats())

	client := fmt.Sprintf("n%d/transport/", w.Ends[0].ClientAddr)
	conn := res.ClientConn.(*sublayered.Conn)
	check(client+"conn0/rd", conn.RD().Stats())
	check(client+"conn0/osr", conn.OSR().Stats())
	// conn0/cm is checked by TestConnGroupNames (internal/transport/sublayered),
	// which can reach the connection manager.
	check(fmt.Sprintf("n%d/transport/tcp", w.ServerAddr()), w.Server.(*Monolithic).Stats())
}
