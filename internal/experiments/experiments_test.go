package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// Each experiment generator must run, produce rows, and satisfy its
// headline claim. These are the executable versions of EXPERIMENTS.md.

func TestE1AllVariantsDeliver(t *testing.T) {
	r := E1DataLink(Config{Seed: 1})
	if len(r.Rows) < 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !strings.HasPrefix(row[1], "40/") || row[1] != "40/40" {
			t.Errorf("variant %q delivered %s", row[0], row[1])
		}
	}
}

func TestE2BothComputersAgree(t *testing.T) {
	r := E2Routing(Config{Seed: 2})
	for _, row := range r.Rows[:3] {
		if row[2] != "true" || row[3] != "true" {
			t.Errorf("scenario %q: dv=%s ls=%s", row[0], row[2], row[3])
		}
	}
	// Live-swap row keeps the forwarding plane; reconvergence rows
	// report a bounded time.
	foundSwap, foundReconv := false, false
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], "live swap") {
			foundSwap = true
			if !strings.Contains(row[3], "true") {
				t.Errorf("live swap replaced forwarding plane: %v", row)
			}
		}
		if strings.HasPrefix(row[0], "reconverge") {
			foundReconv = true
			if strings.Contains(row[2], "did not") {
				t.Errorf("no reconvergence: %v", row)
			}
		}
	}
	if !foundSwap || !foundReconv {
		t.Errorf("missing rows: swap=%v reconv=%v", foundSwap, foundReconv)
	}
}

func TestE3StreamsIntact(t *testing.T) {
	if testing.Short() {
		t.Skip("long transfer sweep")
	}
	r := E3SublayeredTCP(Config{Seed: 3})
	for _, row := range r.Rows {
		if row[2] != "true" {
			// Not intact is a short stream (a stall) or a wrong one.
			t.Errorf("loss %s: stream not intact: %v = %v", row[0], r.Header, row)
		}
	}
}

func TestE4MatrixInterops(t *testing.T) {
	if testing.Short() {
		t.Skip("long transfer matrix")
	}
	r := E4Interop(Config{Seed: 4})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] != "true" || row[3] != "true" {
			t.Errorf("%s→%s: up=%s down=%s", row[0], row[1], row[2], row[3])
		}
	}
}

func TestE5PaperNumbers(t *testing.T) {
	r := E5Stuffing(Config{})
	if r.Rows[0][1] != "1/32" {
		t.Errorf("HDLC naive overhead = %s, want 1/32", r.Rows[0][1])
	}
	if r.Rows[1][1] != "1/128" {
		t.Errorf("alternate rule naive overhead = %s, want 1/128", r.Rows[1][1])
	}
	for _, row := range r.Rows {
		if row[4] != "true" {
			t.Errorf("rule %q not valid", row[0])
		}
	}
}

func TestE6SublayeredLessEntangled(t *testing.T) {
	r := E6Entanglement(Config{})
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	mono, sub := r.Rows[0], r.Rows[1]
	parse := func(s string) int { v, _ := strconv.Atoi(s); return v }
	mVars, sVars := parse(mono[2]), parse(sub[2])
	mShared, sShared := parse(mono[3]), parse(sub[3])
	mPairs, sPairs := parse(mono[5]), parse(sub[5])
	mMax, sMax := parse(mono[6]), parse(sub[6])
	// The share of variables shared, not their count: the sublayered
	// stack has more per-connection state, so the absolute count would
	// compare sizes, not entanglement.
	if float64(sShared)/float64(sVars) >= float64(mShared)/float64(mVars) {
		t.Errorf("sublayered shares %d of %d vars, monolithic %d of %d (expected a smaller share)", sShared, sVars, mShared, mVars)
	}
	// The paper's O(N²) claim: monolithic interaction density is higher.
	mDensity := float64(mPairs) / float64(mMax)
	sDensity := float64(sPairs) / float64(sMax)
	if sDensity >= mDensity {
		t.Errorf("interaction density: sublayered %.2f vs monolithic %.2f", sDensity, mDensity)
	}
	// The CC-swap asymmetry E12 leans on: the controller variable's
	// blast radius is strictly larger in the monolithic stack.
	mCCHandlers, sCCHandlers := parse(mono[7]), parse(sub[7])
	mBlast, sBlast := parse(mono[8]), parse(sub[8])
	if mCCHandlers == 0 || sCCHandlers == 0 {
		t.Fatalf("cc variable untracked: mono %d handlers, sub %d", mCCHandlers, sCCHandlers)
	}
	if sBlast >= mBlast {
		t.Errorf("cc blast radius: sublayered %d vs monolithic %d (expected strictly fewer)", sBlast, mBlast)
	}
}

func TestE9SimpleCutWins(t *testing.T) {
	if testing.Short() {
		t.Skip("offload workload")
	}
	r := E9Offload(Config{Seed: 9})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	events := map[string]int{}
	dup := map[string]string{}
	for _, row := range r.Rows {
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("%s: bus-events %q: %v", row[0], row[2], err)
		}
		events[row[0]], dup[row[0]] = n, row[4]
	}
	// The simple cut keeps acks and retransmissions on the NIC; RD
	// alone pays the CM↔RD crossings besides; software pays them all.
	if !(events["nic-rd-cm-dm"] < events["nic-rd-only"] && events["nic-rd-only"] < events["sw-only"]) {
		t.Errorf("bus-events %v: want nic-rd-cm-dm < nic-rd-only < sw-only", events)
	}
	// RD alone in hardware mirrors CM state.
	if d := dup["nic-rd-only"]; d == "" || d == "0B" {
		t.Errorf("nic-rd-only dup-state = %q, want non-zero", d)
	}
}

// TestE10ChaosInvariants is the chaos-soak acceptance check: every
// healing scenario completes, the prefix invariant and sublayer
// contracts hold across the whole matrix, and the permanent partition
// trips the user timeout on both stacks instead of hanging.
func TestE10ChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix")
	}
	r := E10ChaosSoak(Config{Seed: 10})
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (6 scenarios × 2 stacks)", len(r.Rows))
	}
	for _, row := range r.Rows {
		scenario, stack := row[0], row[1]
		if row[3] != "true" {
			t.Errorf("%s/%s: prefix invariant violated", scenario, stack)
		}
		if row[4] != "0" {
			t.Errorf("%s/%s: %s contract violations under chaos", scenario, stack, row[4])
		}
		if scenario == "hard-partition" {
			if row[2] != "false" {
				t.Errorf("%s/%s: completed through a permanent partition?", scenario, stack)
			}
			if row[5] == "0" {
				t.Errorf("%s/%s: no abort — user timeout did not fire", scenario, stack)
			}
		} else if row[2] != "true" {
			t.Errorf("%s/%s: transfer did not complete after healing", scenario, stack)
		}
	}
}

// TestE11FlowScaling is the flow-scaling acceptance check: every cell
// of the 10/100/1000 × both-stacks matrix completes all its flows with
// zero invariant violations.
func TestE11FlowScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-flow matrix")
	}
	r := E11FlowScaling(Config{Seed: 11})
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 flow counts × 2 stacks)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] != row[0]+"/"+row[0] {
			t.Errorf("%s flows on %s: completed %s", row[0], row[1], row[2])
		}
		if row[7] != "0" {
			t.Errorf("%s flows on %s: %s watchdog violations", row[0], row[1], row[7])
		}
	}
}

// TestE16ShardScaling is the shard-scaling acceptance check: both
// flow counts complete every flow with zero violations on sim, and the
// manifest on sharded:2 — the one backend the determinism gate does
// not run the 10k-flow cell on — equals the one on sim.
func TestE16ShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-flow cells")
	}
	sim := E16ShardScaling(Config{Seed: 16})
	if len(sim.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (1k and 10k flows)", len(sim.Rows))
	}
	for _, row := range sim.Rows {
		if row[2] != row[0]+"/"+row[0] {
			t.Errorf("%s flows: completed %s", row[0], row[2])
		}
		if row[7] != "0" {
			t.Errorf("%s flows: %s watchdog violations", row[0], row[7])
		}
	}
	sharded := E16ShardScaling(Config{Seed: 16, Backend: "sharded:2"})
	if !bytes.Equal(manifestJSON(t, sim), manifestJSON(t, sharded)) {
		t.Error("E16 manifest differs between sim and sharded:2")
	}
}

// TestE12ControllersFungibleButDistinct is the bake-off acceptance
// check: all 18 cells of the {stack × controller × regime} matrix
// complete every flow with zero violations (fungibility), yet within
// at least one fixed (stack, regime) group the goodput/fairness
// columns differ across controllers (the choice is visible).
func TestE12ControllersFungibleButDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("18-cell matrix")
	}
	r := E12CCBakeoff(Config{Seed: 12})
	if len(r.Rows) != 18 {
		t.Fatalf("rows = %d, want 18 (2 stacks × 3 CCs × 3 regimes)", len(r.Rows))
	}
	type group struct{ stack, regime string }
	outcomes := make(map[group]map[string]bool)
	for _, row := range r.Rows {
		if row[3] != "24/24" {
			t.Errorf("%s/%s/%s: completed %s", row[0], row[1], row[2], row[3])
		}
		if row[8] != "0" {
			t.Errorf("%s/%s/%s: %s watchdog violations", row[0], row[1], row[2], row[8])
		}
		g := group{row[0], row[2]}
		if outcomes[g] == nil {
			outcomes[g] = make(map[string]bool)
		}
		outcomes[g][row[4]+"|"+row[7]] = true
	}
	distinct := false
	for _, set := range outcomes {
		if len(set) > 1 {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("controller choice invisible: goodput and fairness identical across CCs in every cell group")
	}
}

func TestResultTextRenders(t *testing.T) {
	r := E5Stuffing(Config{})
	txt := r.Text()
	for _, want := range []string{"E5", "HDLC", "note:"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text missing %q", want)
		}
	}
}

// TestMetricsDeterministic pins the run-report contract: the same
// experiment at the same seed snapshots byte-identical metrics, and a
// different seed produces a visibly different world.
func TestMetricsDeterministic(t *testing.T) {
	a, b := E1DataLink(Config{Seed: 7}), E1DataLink(Config{Seed: 7})
	if len(a.Metrics.Samples) == 0 {
		t.Fatal("E1 attached no metrics")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("same seed, different snapshots")
	}
	c := E1DataLink(Config{Seed: 8})
	if reflect.DeepEqual(a.Metrics, c.Metrics) {
		t.Error("different seeds produced identical snapshots")
	}
	// The committed form of the same contract: manifests marshal
	// byte-identically, and a different world moves a digest.
	if !bytes.Equal(manifestJSON(t, a), manifestJSON(t, b)) {
		t.Error("same seed, different manifests")
	}
	if bytes.Equal(manifestJSON(t, a), manifestJSON(t, c)) {
		t.Error("different seeds produced identical manifests")
	}
}

func manifestJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r.Manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestManifest pins what the golden BENCH_metrics.json relies on: the
// manifest carries the table verbatim, accounts for every sample, does
// not depend on the backend, and any single-field change to any sample
// moves exactly the digest of the scenario that sample belongs to.
func TestManifest(t *testing.T) {
	res := E3SublayeredTCP(Config{Seed: 1})
	m := res.Manifest()
	total := 0
	for _, d := range m.Metrics {
		total += d.Samples
	}
	if total != len(res.Metrics.Samples) || total == 0 {
		t.Errorf("digests cover %d samples, result has %d", total, len(res.Metrics.Samples))
	}
	// What is written: the table as Result has it, and one
	// self-describing string per scenario in place of the samples.
	var written struct {
		Rows    [][]string
		Metrics []string
	}
	if err := json.Unmarshal(manifestJSON(t, res), &written); err != nil {
		t.Fatalf("manifest JSON: %v", err)
	}
	if !reflect.DeepEqual(written.Rows, res.Rows) || len(res.Rows) == 0 {
		t.Errorf("manifest rows = %v, result rows = %v", written.Rows, res.Rows)
	}
	if len(written.Metrics) != len(m.Metrics) || !strings.HasPrefix(written.Metrics[2], "E3/loss05 samples=") {
		t.Errorf("manifest metrics = %q, want one line per scenario", written.Metrics)
	}

	sharded := E3SublayeredTCP(Config{Seed: 1, Backend: "sharded:2"})
	if !bytes.Equal(manifestJSON(t, res), manifestJSON(t, sharded)) {
		t.Error("manifest on sharded:2 differs from sim")
	}

	// Each mutation edits one sample of a deep copy; only the digest
	// of that sample's scenario may move.
	const victim = "loss05"
	find := func(s []metrics.Sample, kind string) *metrics.Sample {
		for i := range s {
			if s[i].Kind == kind && scenarioOf(s[i].Name) == victim && s[i].Value > 0 {
				return &s[i]
			}
		}
		t.Fatalf("no non-zero %s under %s/", kind, victim)
		return nil
	}
	mutations := map[string]func(s []metrics.Sample){
		"counter value": func(s []metrics.Sample) { find(s, metrics.KindCounter).Value++ },
		"bucket count":  func(s []metrics.Sample) { find(s, metrics.KindHistogram).Buckets[0].N++ },
		"sample name":   func(s []metrics.Sample) { find(s, metrics.KindCounter).Name += "x" },
	}
	for what, mutate := range mutations {
		cp := *res
		cp.Metrics.Samples = make([]metrics.Sample, len(res.Metrics.Samples))
		for i, s := range res.Metrics.Samples {
			s.Buckets = append([]metrics.Bucket(nil), s.Buckets...)
			cp.Metrics.Samples[i] = s
		}
		mutate(cp.Metrics.Samples)
		got := cp.Manifest().Metrics
		if len(got) != len(m.Metrics) {
			t.Fatalf("%s: %d digests became %d", what, len(m.Metrics), len(got))
		}
		for i, d := range got {
			if moved := d != m.Metrics[i]; moved != (d.Scenario == "E3/"+victim) {
				t.Errorf("%s under %s: digest of %s moved = %v", what, victim, d.Scenario, moved)
			}
		}
	}
}

// TestMetricsDeterministicTransport repeats the check through the full
// transport harness (E9's single sublayered world), where RTT
// histograms and per-connection scopes join the snapshot.
func TestMetricsDeterministicTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("offload workload")
	}
	a, b := E9Offload(Config{Seed: 11}), E9Offload(Config{Seed: 11})
	if len(a.Metrics.Samples) == 0 {
		t.Fatal("E9 attached no metrics")
	}
	if _, ok := a.Metrics.Get("n1/transport/conn0/rd/rtt_ms"); !ok {
		t.Error("snapshot missing client RD RTT histogram")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("same seed, different snapshots")
	}
}

// TestMetricsDeterministicChaos extends the byte-identity contract to
// E10, where the snapshot additionally contains the fault injector's
// own counters and the watchdog scope — the whole failure history must
// be a pure function of the seed.
func TestMetricsDeterministicChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix")
	}
	a, b := E10ChaosSoak(Config{Seed: 13}), E10ChaosSoak(Config{Seed: 13})
	if len(a.Metrics.Samples) == 0 {
		t.Fatal("E10 attached no metrics")
	}
	if _, ok := a.Metrics.Get("bursty-loss/sublayered/faults/ge_transitions"); !ok {
		t.Error("snapshot missing fault-injector counters")
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("same seed, different snapshots")
	}
	c := E10ChaosSoak(Config{Seed: 14})
	if reflect.DeepEqual(a.Metrics, c.Metrics) {
		t.Error("different seeds produced identical snapshots")
	}
}

// TestAllExperimentsCarryMetrics pins the satellite claim: every
// experiment in the run report, E1 through E10, populates
// Result.Metrics.
func TestAllExperimentsCarryMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, r := range RunAll(Config{Seed: 1}) {
		if len(r.Metrics.Samples) == 0 {
			t.Errorf("%s: no metrics in run report", r.ID)
		}
	}
}
