package repro

// One benchmark per experiment in DESIGN.md's index (E1–E14). Each
// regenerates its table through internal/experiments — the same code
// path as cmd/benchreport — so `go test -bench=. -benchtime=1x` is a
// full reproduction run, and the b.N loop measures the end-to-end cost
// of the experiment itself. The E7 trio additionally measures the
// CPU cost per transferred megabyte of each TCP implementation, which
// is the quantitative answer to §3.1's performance objection.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datalink"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stuffing"
	"repro/internal/transport"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.Run(id, experiments.Config{Seed: 1})
		if r == nil || len(r.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// BenchmarkE1DataLinkStack regenerates the Fig. 2 replacement table.
func BenchmarkE1DataLinkStack(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2Routing regenerates the DV/LS convergence and live-swap
// table.
func BenchmarkE2Routing(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3SublayeredTCP regenerates the loss-sweep stream-integrity
// table.
func BenchmarkE3SublayeredTCP(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4Interop regenerates the 2×2 interop matrix.
func BenchmarkE4Interop(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5Stuffing regenerates the rule-library and overhead table.
func BenchmarkE5Stuffing(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE5RuleLibrary measures the decision procedure over the full
// 8-bit-flag candidate family (the "Coq proof" replacement).
func BenchmarkE5RuleLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(stuffing.Library(8)) == 0 {
			b.Fatal("empty library")
		}
	}
}

// BenchmarkE6Entanglement regenerates the instrumented entanglement
// comparison.
func BenchmarkE6Entanglement(b *testing.B) { benchExperiment(b, "e6") }

// benchTransfer measures the CPU cost of moving 1 MB through a given
// pairing on a clean two-hop path.
func benchTransfer(b *testing.B, client, server harness.Kind) {
	b.Helper()
	data := make([]byte, 1_000_000)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := harness.BuildWorld(harness.WorldConfig{
			Seed: 1, Link: netsim.LinkConfig{Delay: time.Millisecond},
			Client: client, Server: server,
		})
		res, err := harness.RunTransfer(w, data, nil, time.Hour)
		if err != nil || !bytes.Equal(res.ServerGot, data) {
			b.Fatal("transfer failed")
		}
	}
}

// BenchmarkE7PerformanceMonolithic: baseline CPU cost per MB.
func BenchmarkE7PerformanceMonolithic(b *testing.B) {
	benchTransfer(b, harness.KindMonolithic, harness.KindMonolithic)
}

// BenchmarkE7PerformanceSublayered: the Fig. 5 stack, native header.
func BenchmarkE7PerformanceSublayered(b *testing.B) {
	benchTransfer(b, harness.KindSublayeredNative, harness.KindSublayeredNative)
}

// BenchmarkE7PerformanceShim: sublayered behind the §3.1 shim talking
// to the monolithic baseline — the interop configuration's cost.
func BenchmarkE7PerformanceShim(b *testing.B) {
	benchTransfer(b, harness.KindSublayeredShim, harness.KindMonolithic)
}

// benchConnSetup measures what one connection costs end to end with a
// metrics registry attached: dial, accept, establish, close both ways.
// No payload moves, and every connection's instruments stay in the
// registry, so the b.N-th connection is set up at load b.N.
func benchConnSetup(b *testing.B, kind harness.Kind) {
	b.Helper()
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: 1, Hops: 2, Link: netsim.LinkConfig{Delay: time.Millisecond},
		Client: kind, Server: kind, Metrics: metrics.New(),
	})
	defer w.Close()
	closed := 0
	onClosed := func(error) { closed++ }
	if err := w.Server.Listen(80, func(c transport.Conn) {
		c.Callbacks(nil, func() { c.ReadAll(); c.Close() }, nil, onClosed)
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := w.Client.Dial(w.ServerAddr(), 80)
		if err != nil {
			b.Fatal(err)
		}
		c.Callbacks(c.Close, func() { c.ReadAll() }, nil, onClosed)
		// Handshake and both FINs are a handful of 1 ms hops; TIME_WAIT
		// outlives the slice and expires during later iterations.
		w.Sim.RunFor(20 * time.Millisecond)
	}
	b.StopTimer()
	w.Sim.RunFor(time.Minute)
	if closed != 2*b.N {
		b.Fatalf("%d of %d connection ends closed", closed, 2*b.N)
	}
}

// BenchmarkConnSetupSub: per-connection cost of the sublayered stack
// (four sublayers, ~30 instruments adopted as one group).
func BenchmarkConnSetupSub(b *testing.B) { benchConnSetup(b, harness.KindSublayeredNative) }

// BenchmarkConnSetupMono: the monolithic baseline, which has no
// per-connection instruments.
func BenchmarkConnSetupMono(b *testing.B) { benchConnSetup(b, harness.KindMonolithic) }

// BenchmarkE8Replace regenerates the CC × CM swap matrix.
func BenchmarkE8Replace(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9Offload regenerates the hardware-partition table.
func BenchmarkE9Offload(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10ChaosSoak regenerates the fault-matrix soak: both stacks
// through bursty loss, flaps, partitions, a router crash-restart, a
// blackhole, and the permanent partition that trips the user timeout.
func BenchmarkE10ChaosSoak(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11FlowScaling regenerates the many-flow scaling matrix
// (10/100/1000 flows × both stacks through the workload engine).
func BenchmarkE11FlowScaling(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE11Workload1000 measures the engine alone at the E11
// ceiling: one 1,000-flow simulation, both payload directions counted.
func BenchmarkE11Workload1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := workload.Run(workload.Config{Seed: 1, Flows: 1000})
		if r.Completed != 1000 || len(r.Violations) != 0 {
			b.Fatalf("completed=%d violations=%d", r.Completed, len(r.Violations))
		}
	}
}

// BenchmarkE12CCBakeoff regenerates the congestion-control bake-off:
// both stacks × {newreno, cubic, bbrlite} × {clean, random-loss,
// bursty} through the ccontrol registry.
func BenchmarkE12CCBakeoff(b *testing.B) { benchExperiment(b, "e12") }

// --- ablation benches for DESIGN.md's called-out choices ---

// BenchmarkAblationDelayedAcks measures the challenge-3 tune: ack
// thinning's effect on total work for a clean 1 MB transfer.
func BenchmarkAblationDelayedAcks(b *testing.B) {
	for _, delayed := range []bool{false, true} {
		name := "ack-every-segment"
		if delayed {
			name = "delayed-acks"
		}
		b.Run(name, func(b *testing.B) {
			data := make([]byte, 1_000_000)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := harness.BuildWorld(harness.WorldConfig{
					Seed: 1, Link: netsim.LinkConfig{Delay: time.Millisecond},
					Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
					SubCfg: sublayered.Config{DelayedAcks: delayed},
				})
				res, err := harness.RunTransfer(w, data, nil, time.Hour)
				if err != nil || len(res.ServerGot) != len(data) {
					b.Fatal("transfer failed")
				}
			}
		})
	}
}

// BenchmarkAblationSACK measures selective acknowledgements' value on
// a lossy path (native mode).
func BenchmarkAblationSACK(b *testing.B) {
	for _, sack := range []bool{false, true} {
		name := "cumulative-only"
		if sack {
			name = "with-sack"
		}
		b.Run(name, func(b *testing.B) {
			data := make([]byte, 300_000)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				w := harness.BuildWorld(harness.WorldConfig{
					Seed: 1, Link: netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.05},
					Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
					SubCfg: sublayered.Config{NativeSACK: sack},
				})
				res, err := harness.RunTransfer(w, data, nil, time.Hour)
				if err != nil || len(res.ServerGot) != len(data) {
					b.Fatal("transfer failed")
				}
			}
		})
	}
}

// BenchmarkAblationNestedFraming compares the recursive two-sublayer
// framing against the monolithic framer (the cost of literal
// recursion).
func BenchmarkAblationNestedFraming(b *testing.B) {
	pkt := make([]byte, 512)
	for _, nested := range []bool{false, true} {
		name := "monolithic-framer"
		fr := func() datalink.Framer { return datalink.NewBitStuffFramer(stuffing.HDLC()) }
		if nested {
			name = "nested-framer"
			fr = func() datalink.Framer { return datalink.NewNestedFramer(stuffing.HDLC()) }
		}
		b.Run(name, func(b *testing.B) {
			f := fr()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bits, err := f.Frame(pkt)
				if err != nil {
					b.Fatal(err)
				}
				if got := f.Deframe(bits); len(got) != 1 {
					b.Fatal("deframe failed")
				}
			}
		})
	}
}

// BenchmarkE13Overlay regenerates the application-layer overlay
// matrix: RPC, DHT and gossip tiers on both stacks under the cluster
// fault scenarios.
func BenchmarkE13Overlay(b *testing.B) { benchExperiment(b, "e13") }

// BenchmarkE14CorpusReplay regenerates the fault-schedule fuzz corpus
// replay: every committed reproducer plus two fresh schedules through
// the cross-stack differential oracle.
func BenchmarkE14CorpusReplay(b *testing.B) { benchExperiment(b, "e14") }
