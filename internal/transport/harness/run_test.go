package harness

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport"
)

func never() bool { return false }

// TestRunUntilSlicingIsInvisible pins the invariant every RunUntil
// caller rests on: cutting a run into simSlice pieces changes nothing.
// The same world advanced by one RunFor(span) and by RunUntil(span,
// never), with a lossy transfer in flight across every slice boundary,
// ends at the same clock with the same Steps() and a byte-equal metrics
// snapshot, on the sequential simulator and on the sharded engine. It
// also pins RunUntil's two exits: a predicate that already holds
// returns at once without advancing the clock, and one that never
// holds returns false no earlier than the budget — and, on a
// wall-clock backend, within about one slice after it.
func TestRunUntilSlicingIsInvisible(t *testing.T) {
	const span = 3 * time.Second // a whole number of slices
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	run := func(backend string, advance func(netsim.Backend)) (uint64, []byte, int) {
		reg := metrics.New()
		w := BuildWorld(WorldConfig{Backend: backend, Seed: 9, Link: lossyLink, Metrics: reg})
		defer w.Close()
		got := 0
		w.Exec(func() {
			stream(t, w, data, func(sc transport.Conn) {
				sc.Callbacks(nil, func() { got += len(sc.ReadAll()) }, nil, nil)
			})
		})
		start := w.Sim.Now()
		advance(w.Sim)
		if d := w.Sim.Now() - start; d != netsim.Time(span) {
			t.Errorf("%s: advanced %v, want %v", backend, time.Duration(d), span)
		}
		var snap []byte
		w.Exec(func() {
			var err error
			if snap, err = json.Marshal(reg.Snapshot()); err != nil {
				t.Fatal(err)
			}
		})
		return w.Sim.Steps(), snap, got
	}
	for _, backend := range []string{BackendSim, "sharded:4"} {
		steps, snap, got := run(backend, func(b netsim.Backend) { b.RunFor(span) })
		if got == 0 || got == len(data) {
			t.Fatalf("%s: %d of %d bytes delivered in %v; the transfer must straddle the slices",
				backend, got, len(data), span)
		}
		sliced, slicedSnap, _ := run(backend, func(b netsim.Backend) {
			if RunUntil(b, span, never) {
				t.Errorf("%s: RunUntil(never) reported settled", backend)
			}
		})
		if sliced != steps {
			t.Errorf("%s: Steps() = %d sliced, %d in one RunFor", backend, sliced, steps)
		}
		if !bytes.Equal(slicedSnap, snap) {
			t.Errorf("%s: metrics differ between sliced and whole runs: %s", backend, diffHint(slicedSnap, snap))
		}
	}
	for _, kind := range []string{BackendSim, "sharded:4", BackendChan} {
		b, err := NewBackend(kind, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		start := b.Now()
		if !RunUntil(b, time.Hour, func() bool { return true }) {
			t.Errorf("%s: RunUntil(done) = false", kind)
		}
		if d := b.Now() - start; !Realtime(kind) && d != 0 {
			t.Errorf("%s: RunUntil(done) advanced the clock %v", kind, time.Duration(d))
		}
		// Virtual runs end on a slice boundary at or past the budget. A
		// wall-clock sleep can overrun on a loaded host, so the real-time
		// bound carries 50 ms of slack past the one slice.
		budget, over := 1250*time.Millisecond, simSlice-1
		if Realtime(kind) {
			budget, over = 40*time.Millisecond, rtSlice+50*time.Millisecond
		}
		start = b.Now()
		if RunUntil(b, budget, never) {
			t.Errorf("%s: RunUntil(never) = true", kind)
		}
		if d := time.Duration(b.Now() - start); d < budget || d > budget+over {
			t.Errorf("%s: RunUntil(never, %v) advanced %v, want within [budget, budget+%v]", kind, budget, d, over)
		}
	}
}

// TestRunTransferStopsWhenBothEndsDie: a transfer cut by a permanent
// partition 200 ms in (E10's hard-partition cell) cannot reach EOF,
// but both ends abort on their user timeouts, the later near 6 min of
// virtual time, and RunTransfer returns then, well inside its 15 min
// budget, on both stacks.
func TestRunTransferStopsWhenBothEndsDie(t *testing.T) {
	const budget = 15 * time.Minute
	for _, kind := range []Kind{KindSublayeredNative, KindMonolithic} {
		w := BuildWorld(WorldConfig{Seed: 1, Client: kind, Server: kind,
			Link: netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 4_000_000, QueueLimit: 64}})
		inj := faults.New(w.Sim, w.Topo, 1)
		inj.MustApply(faults.Script{Name: "hard-partition", Steps: []faults.Step{
			{At: 200 * time.Millisecond, Fault: faults.Partition{Nodes: []network.Addr{w.ServerAddr()}}},
		}})
		data := make([]byte, 120_000)
		res, err := RunTransfer(w, data, data[:60_000], budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.ClientErr == nil || res.ServerErr == nil {
			t.Errorf("%v: errors client %v, server %v; want both ends dead", kind, res.ClientErr, res.ServerErr)
		}
		if now := time.Duration(w.Sim.Now()); now > budget/2 {
			t.Errorf("%v: returned at %v, want well inside the %v budget", kind, now, budget)
		}
		w.Close()
	}
}

// diffHint locates the first divergence between two JSON snapshots for
// the failure message.
func diffHint(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			s := func(x []byte) string {
				h := hi
				if h > len(x) {
					h = len(x)
				}
				return string(x[lo:h])
			}
			return "…" + s(a) + "… vs …" + s(b) + "…"
		}
	}
	return "length mismatch"
}
