package offload

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

// runWorkload drives a real transfer and returns the client's measured
// crossings plus raw wire counts.
func runWorkload(t *testing.T, bytes int) (sublayered.Crossings, uint64, uint64) {
	t.Helper()
	w := harness.BuildWorld(harness.WorldConfig{
		Seed:   5,
		Link:   netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.02},
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	data := make([]byte, bytes)
	res, err := harness.RunTransfer(w, data, nil, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerGot) != bytes {
		t.Fatalf("transfer incomplete: %d of %d", len(res.ServerGot), bytes)
	}
	return crossingsOf(t, res.ClientConn), 0, 0
}

func crossingsOf(t *testing.T, e transport.Conn) sublayered.Crossings {
	t.Helper()
	c, ok := e.(*sublayered.Conn)
	if !ok {
		t.Fatalf("%T is not a sublayered connection", e)
	}
	return c.CrossingStats()
}

func TestAnalyzeShape(t *testing.T) {
	cr, _, _ := runWorkload(t, 120_000)
	wirePkts := cr.ToDM.Value() + cr.FromDM.Value() // every composed/received segment hits the wire in sw-only
	rows := Analyze(cr, wirePkts, 130_000)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPart := map[Partition]Report{}
	for _, r := range rows {
		byPart[r.Partition] = r
	}
	// The paper's qualitative shape: moving RD+CM+DM to hardware cuts
	// bus events versus raw packets (acks and retransmissions stay on
	// the NIC).
	if byPart[NICRDCMDM].BusEvents >= byPart[SWOnly].BusEvents {
		t.Errorf("simple cut (%d events) not cheaper than sw-only (%d)",
			byPart[NICRDCMDM].BusEvents, byPart[SWOnly].BusEvents)
	}
	// RD-only costs more crossings than the simple cut and is the only
	// partition with duplicated state.
	if byPart[NICRDOnly].BusEvents < byPart[NICRDCMDM].BusEvents {
		t.Error("rd-only cheaper than rd-cm-dm (should pay for the extra boundary)")
	}
	if byPart[NICRDOnly].DuplicatedState == 0 {
		t.Error("rd-only reports no duplicated state")
	}
	for _, p := range []Partition{SWOnly, NICDM, NICRDCMDM} {
		if byPart[p].DuplicatedState != 0 {
			t.Errorf("%v reports duplicated state", p)
		}
	}
}

func TestPartitionMetadata(t *testing.T) {
	names := map[Partition]string{
		SWOnly: "sw-only", NICDM: "nic-dm", NICRDCMDM: "nic-rd-cm-dm", NICRDOnly: "nic-rd-only",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if len(SWOnly.HardwareSublayers()) != 0 {
		t.Error("sw-only has hardware")
	}
	if got := NICRDCMDM.HardwareSublayers(); len(got) != 3 {
		t.Errorf("simple cut hardware = %v", got)
	}
}
