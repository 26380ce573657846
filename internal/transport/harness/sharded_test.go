package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// TestShardedMultiPairWorld pins the E16 world shape: several disjoint
// client/server pairs in one sharded world, each pair completing its
// own transfer, with the pair set identical at every shard count.
func TestShardedMultiPairWorld(t *testing.T) {
	const pairs = 4
	payload := []byte("multi-pair payload")
	for _, backend := range []string{BackendSim, "sharded:4"} {
		w := BuildWorld(WorldConfig{Backend: backend, Seed: 11,
			Link: netsim.LinkConfig{Delay: time.Millisecond}, Hops: 2, Pairs: pairs})
		if len(w.Ends) != pairs {
			t.Fatalf("%s: %d ends, want %d", backend, len(w.Ends), pairs)
		}
		got := make([][]byte, pairs)
		w.Exec(func() {
			for p, end := range w.Ends {
				p := p
				if err := end.Server.Listen(80, func(sc transport.Conn) {
					sc.Callbacks(nil, func() {
						got[p] = append(got[p], sc.ReadAll()...)
					}, nil, nil)
				}); err != nil {
					t.Errorf("%s: pair %d listen: %v", backend, p, err)
					return
				}
				cc, err := end.Client.Dial(end.ServerAddr, 80)
				if err != nil {
					t.Errorf("%s: pair %d dial: %v", backend, p, err)
					return
				}
				cc.Callbacks(func() {
					cc.Write(payload)
					cc.Close()
				}, nil, nil, nil)
			}
		})
		w.Sim.RunFor(time.Minute)
		for p := range got {
			if !bytes.Equal(got[p], payload) {
				t.Errorf("%s: pair %d delivered %q, want %q", backend, p, got[p], payload)
			}
		}
		w.Close()
	}
}
