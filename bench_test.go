package repro

// Regenerator benchmarks for E1–E6 and E8–E14 of DESIGN.md's index.
// Each rebuilds its experiment's table through internal/experiments —
// the same code path as cmd/runreport — so the b.N loop measures the
// end-to-end cost of the experiment itself. E7 has none: its table is
// virtual time, and its real question — what a transferred megabyte or
// a connection costs each TCP implementation, the quantitative answer
// to §3.1's performance objection — is measured by the repository
// benchmark (bench/, BENCHMARK.json), whose clock stops at the last
// verified byte; RunTransfer's fixed virtual budget would time an
// idle control plane instead.

import (
	"testing"

	"repro/internal/datalink"
	"repro/internal/experiments"
	"repro/internal/stuffing"
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

// BenchmarkAblationNestedFraming compares the recursive two-sublayer
// framing against the monolithic framer (the cost of literal
// recursion) — the ablation whose subject is CPU cost itself.
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
