package harness

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// worldDigest is everything observable from one full simulated world:
// the metrics snapshot (simulator, links, routers, both transports),
// the trace recorder's decoded packet log, and the delivered stream.
// If any state were shared between Simulator instances — a global RNG,
// a global registry, a shared trace buffer — concurrent runs would
// either trip the race detector or perturb these bytes.
type worldDigest struct {
	snapshot []byte
	traceLog string
	total    uint64
	payload  [32]byte
}

func runDigestWorld(t *testing.T, seed int64) worldDigest {
	t.Helper()
	reg := metrics.New()
	w := BuildWorld(WorldConfig{
		Seed:   seed,
		Link:   lossyWorldLink(),
		Client: KindSublayeredNative, Server: KindSublayeredNative,
		Metrics: reg,
	})
	rec := trace.NewRecorder(w.Sim, 256)
	rec.Attach(w.Topo.Routers[2])

	data := make([]byte, 120_000)
	rand.New(rand.NewSource(seed)).Read(data)
	r, err := RunTransfer(w, data, nil, 10*time.Minute)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !bytes.Equal(r.ServerGot, data) {
		t.Fatalf("seed %d: stream corrupted", seed)
	}
	return worldDigest{
		snapshot: reg.Snapshot().JSON(),
		traceLog: rec.Dump(),
		total:    rec.Total(),
		payload:  sha256.Sum256(r.ServerGot),
	}
}

// lossyWorldLink keeps the per-simulator RNG hot on every packet (5%
// loss, jitter, reordering), so a shared RNG could not go unnoticed.
func lossyWorldLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		Delay:       2 * time.Millisecond,
		Jitter:      time.Millisecond,
		LossProb:    0.05,
		ReorderProb: 0.05,
	}
}

// TestConcurrentSimulatorsIndependent runs six full worlds in
// parallel — metrics registries and trace recorders attached — and
// demands byte-identical results to the same seeds run serially.
// Under -race this also proves the stacks, simulator, RNGs, metrics
// and trace recorder share no hidden global state.
func TestConcurrentSimulatorsIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel world matrix")
	}
	seeds := []int64{101, 102, 103, 104, 101, 103} // repeats catch cross-run bleed
	baseline := make([]worldDigest, len(seeds))
	for i, s := range seeds {
		baseline[i] = runDigestWorld(t, s)
	}

	concurrent := make([]worldDigest, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = runDigestWorld(t, s)
		}()
	}
	wg.Wait()

	for i := range seeds {
		if !bytes.Equal(baseline[i].snapshot, concurrent[i].snapshot) {
			t.Errorf("seed %d: concurrent metrics snapshot differs from serial", seeds[i])
		}
		if baseline[i].traceLog != concurrent[i].traceLog || baseline[i].total != concurrent[i].total {
			t.Errorf("seed %d: concurrent trace differs from serial (%d vs %d events)",
				seeds[i], baseline[i].total, concurrent[i].total)
		}
		if baseline[i].payload != concurrent[i].payload {
			t.Errorf("seed %d: delivered stream differs", seeds[i])
		}
	}
	// Identical seeds must agree with each other too, run concurrently.
	if !bytes.Equal(concurrent[0].snapshot, concurrent[4].snapshot) {
		t.Error("two concurrent runs of seed 101 diverged")
	}
}
