package workload

import (
	"encoding/json"
	"runtime"
	"strconv"
	"time"

	"repro/internal/overlay"
	"repro/internal/transport/harness"
)

// MatrixKinds is the E11 stack axis: both implementations, native
// wire format each, driven through the identical engine code path.
var MatrixKinds = []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic}

// MatrixFlows is the E11 flow-scaling axis.
var MatrixFlows = []int{10, 100, 1000}

// Cell is one (flows × stack) matrix entry plus its wall-clock cost —
// the only nondeterministic field, kept out of Report itself.
type Cell struct {
	Flows  int
	Kind   harness.Kind
	Report *Report
	WallNs int64
	Allocs uint64
}

// Matrix runs the flow-scaling sweep on the default simulator. Wall
// time and allocation counts are measured around each cell for the
// perf report; everything in Cell.Report stays a pure function of the
// seed.
func Matrix(seed int64, flowCounts []int, kinds []harness.Kind) []Cell {
	return MatrixOn("", seed, flowCounts, kinds)
}

// MatrixOn is Matrix on an explicit backend ("" = default sim). The
// byte-determinism contract makes every Cell.Report identical across
// "sim" and "sharded[:N]" — E11 run through a sharded world is the
// experiment-level leg of the determinism gate's sharded cells.
func MatrixOn(backend string, seed int64, flowCounts []int, kinds []harness.Kind) []Cell {
	var cells []Cell
	for _, flows := range flowCounts {
		for _, kind := range kinds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			rep := Run(Config{Seed: seed, Backend: backend, Flows: flows, Client: kind, Server: kind})
			wall := time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&after)
			cells = append(cells, Cell{
				Flows: flows, Kind: kind, Report: rep,
				WallNs: wall, Allocs: after.Mallocs - before.Mallocs,
			})
		}
	}
	return cells
}

// PerfRow is the deterministic slice of one cell: identical for a
// fixed seed on every machine.
type PerfRow struct {
	Flows          int    `json:"flows"`
	Stack          string `json:"stack"`
	Completed      int    `json:"completed"`
	Failed         int    `json:"failed"`
	BytesDelivered uint64 `json:"bytes_delivered"`
	GoodputBps     uint64 `json:"goodput_bps"`
	FCTp50Ms       int64  `json:"fct_p50_ms"`
	FCTp99Ms       int64  `json:"fct_p99_ms"`
	Fairness       string `json:"fairness"` // %.4f, avoids float-noise diffs
	Violations     int    `json:"violations"`
	Events         uint64 `json:"events"`
	VirtualMs      int64  `json:"virtual_ms"`
}

// BakeoffRow is the deterministic slice of one E12 cell: stack ×
// controller × loss regime at a fixed seed.
type BakeoffRow struct {
	Stack      string `json:"stack"`
	CC         string `json:"cc"`
	Regime     string `json:"regime"`
	Completed  int    `json:"completed"`
	GoodputBps uint64 `json:"goodput_bps"`
	FCTp50Ms   int64  `json:"fct_p50_ms"`
	FCTp99Ms   int64  `json:"fct_p99_ms"`
	Fairness   string `json:"fairness"`
	Violations int    `json:"violations"`
}

// OverlayRow is the deterministic slice of one E13 overlay cell: a
// tier on a stack under a fault scenario, on the simulator at a fixed
// seed. Latencies are in microseconds (milliseconds would round the
// sub-20ms RPC medians into noise).
type OverlayRow struct {
	Scenario   string `json:"scenario"`
	Stack      string `json:"stack"`
	Tier       string `json:"tier"`
	Issued     int    `json:"issued"`
	Resolved   int    `json:"resolved"`
	Missed     int    `json:"missed"`
	HopP50     int    `json:"hop_p50"`
	HopP99     int    `json:"hop_p99"`
	LatP50Us   int64  `json:"lat_p50_us"`
	LatP99Us   int64  `json:"lat_p99_us"`
	ConvP50Us  int64  `json:"conv_p50_us"`
	ConvMaxUs  int64  `json:"conv_max_us"`
	MsgsPerOp  string `json:"msgs_per_op"` // %.2f, avoids float-noise diffs
	Retries    uint64 `json:"retries"`
	Dups       uint64 `json:"dups"`
	Violations int    `json:"violations"`
}

// OverlayScenarioNames is the scenario subset the perf report carries:
// the clean baseline and the churn matrix (the overlay acceptance
// story). The full four-scenario matrix lives in E13 itself.
var OverlayScenarioNames = []string{"clean", "churn"}

// OverlayRows runs the E13 subset on the simulator and projects the
// deterministic fields — the overlay leg of BENCH_perf.json and of
// the benchreport -check gate.
func OverlayRows(seed int64) []OverlayRow {
	byName := make(map[string]overlay.Scenario)
	for _, sc := range overlay.Scenarios(8) {
		byName[sc.Name] = sc
	}
	var rows []OverlayRow
	idx := int64(0)
	for _, name := range OverlayScenarioNames {
		for _, kind := range MatrixKinds {
			for _, tier := range overlay.Tiers() {
				idx++
				r := overlay.Run(overlay.RunConfig{
					Seed: seed + idx, Kind: kind, Tier: tier, Scenario: byName[name],
				})
				rows = append(rows, OverlayRow{
					Scenario: name, Stack: kind.String(), Tier: string(tier),
					Issued: r.Issued, Resolved: r.Resolved, Missed: r.Missed,
					HopP50: r.HopP50, HopP99: r.HopP99,
					LatP50Us: r.LatP50.Microseconds(), LatP99Us: r.LatP99.Microseconds(),
					ConvP50Us: r.ConvergeP50.Microseconds(), ConvMaxUs: r.ConvergeMax.Microseconds(),
					MsgsPerOp: strconv.FormatFloat(r.MsgsPerOp, 'f', 2, 64),
					Retries:   r.Retries, Dups: r.DupReplies,
					Violations: len(r.Violations),
				})
			}
		}
	}
	return rows
}

// PerfTiming carries the wall-clock measurements. These fields vary
// run to run and machine to machine, so they are excluded from the
// deterministic identity (DeterministicJSON).
type PerfTiming struct {
	WallNs         int64   `json:"wall_ns"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// RunSeeds speedup: the same 4-seed batch serial vs parallel.
	SpeedupWorkers  int     `json:"speedup_workers"`
	SerialNs        int64   `json:"serial_ns"`
	ParallelNs      int64   `json:"parallel_ns"`
	SpeedupParallel float64 `json:"speedup_parallel"`
	NumCPU          int     `json:"num_cpu"`
}

// PerfReport is BENCH_perf.json: the E11 flow-scaling matrix, the E12
// controller bake-off, the E15 backend soak, plus wall-clock
// throughput numbers. Soak and Timing are wall-clock sections — like
// Timing, Soak is excluded from DeterministicJSON.
type PerfReport struct {
	Seed    int64        `json:"seed"`
	Rows    []PerfRow    `json:"rows"`
	Bakeoff []BakeoffRow `json:"bakeoff,omitempty"`
	// Scaling is the E16 section: deterministic per-flow-count rows
	// (part of DeterministicJSON — the Identical flag doubles as a
	// cross-backend divergence alarm) plus wall-clock ScalingTiming
	// rows excluded from it like Timing and Soak.
	Scaling       []ScalingRow    `json:"scaling,omitempty"`
	ScalingTiming []ScalingTiming `json:"scaling_timing,omitempty"`
	// Overlay is the E13 section: the clean/churn overlay matrix on the
	// simulator, deterministic like Rows and part of DeterministicJSON.
	Overlay []OverlayRow `json:"overlay,omitempty"`
	Soak    []SoakRow    `json:"soak,omitempty"`
	Timing  *PerfTiming  `json:"timing,omitempty"`
}

// Perf builds the full perf report at seed: the E11 matrix and the E12
// bake-off with per-cell wall costs folded into aggregate timing, the
// RunSeeds parallel-speedup measurement, the E16 shard-scaling matrix
// (1k/10k flows; the 100k point is the long soak's), plus the E15
// backend soak (chan always, udp where loopback sockets exist).
func Perf(seed int64) *PerfReport { return PerfLong(seed, false) }

// PerfLong is Perf with the long flag: true widens the E16 scaling
// axis to the 100k-flow point (the weekly soak; minutes per backend).
func PerfLong(seed int64, long bool) *PerfReport {
	rep := perfReport(seed, MatrixFlows, 100, 16)
	flows := ScalingFlows
	if long {
		flows = ScalingFlowsLong
	}
	rep.Scaling, rep.ScalingTiming = Scaling(seed, flows, ScalingShards)
	rep.Soak = Soak(seed, SoakBackends, SoakFlows, MatrixKinds)
	return rep
}

// perfReport lets tests shrink the matrix; bakeoffFlows 0 skips E12.
func perfReport(seed int64, flowCounts []int, speedupFlows, bakeoffFlows int) *PerfReport {
	cells := Matrix(seed, flowCounts, MatrixKinds)
	rep := &PerfReport{Seed: seed}
	var wall int64
	var events, allocs uint64
	for _, c := range cells {
		rep.Rows = append(rep.Rows, rowOf(c))
		wall += c.WallNs
		events += c.Report.Events
		allocs += c.Allocs
	}
	if bakeoffFlows > 0 {
		for _, c := range Bakeoff(seed, bakeoffFlows) {
			rep.Bakeoff = append(rep.Bakeoff, bakeoffRowOf(c))
			wall += c.WallNs
			events += c.Report.Events
		}
	}
	rep.Overlay = OverlayRows(seed)
	timing := &PerfTiming{WallNs: wall, NumCPU: runtime.NumCPU()}
	if events > 0 {
		timing.NsPerEvent = float64(wall) / float64(events)
		timing.AllocsPerEvent = float64(allocs) / float64(events)
	}
	if wall > 0 {
		timing.EventsPerSec = float64(events) / (float64(wall) / 1e9)
	}
	timing.SpeedupWorkers, timing.SerialNs, timing.ParallelNs, timing.SpeedupParallel =
		measureSpeedup(Config{Seed: seed, Flows: speedupFlows, Client: MatrixKinds[0], Server: MatrixKinds[0]})
	rep.Timing = timing
	return rep
}

// rowOf projects the deterministic fields out of a cell.
func rowOf(c Cell) PerfRow {
	r := c.Report
	return PerfRow{
		Flows: c.Flows, Stack: r.Stack,
		Completed: r.Completed, Failed: r.Failed,
		BytesDelivered: r.BytesDelivered, GoodputBps: r.GoodputBps,
		FCTp50Ms: r.FCTp50.Milliseconds(), FCTp99Ms: r.FCTp99.Milliseconds(),
		Fairness:   fmtFairness(r.Fairness),
		Violations: len(r.Violations),
		Events:     r.Events, VirtualMs: r.Makespan.Milliseconds(),
	}
}

// bakeoffRowOf projects the deterministic fields out of a bake-off
// cell.
func bakeoffRowOf(c BakeoffCell) BakeoffRow {
	r := c.Report
	return BakeoffRow{
		Stack: r.Stack, CC: c.CC, Regime: c.Regime,
		Completed: r.Completed, GoodputBps: r.GoodputBps,
		FCTp50Ms: r.FCTp50.Milliseconds(), FCTp99Ms: r.FCTp99.Milliseconds(),
		Fairness:   fmtFairness(r.Fairness),
		Violations: len(r.Violations),
	}
}

func fmtFairness(f float64) string {
	return strconv.FormatFloat(f, 'f', 4, 64)
}

// measureSpeedup times the same 4-seed RunSeeds batch serially and
// with 4 workers. On a single-core host the ratio hovers near 1; the
// >1.5× acceptance check only applies with ≥4 CPUs (see tests).
func measureSpeedup(cfg Config) (workers int, serialNs, parallelNs int64, speedup float64) {
	workers = 4
	seeds := []int64{cfg.Seed + 1, cfg.Seed + 2, cfg.Seed + 3, cfg.Seed + 4}
	t0 := time.Now()
	RunSeeds(cfg, seeds, 1)
	serialNs = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	RunSeeds(cfg, seeds, workers)
	parallelNs = time.Since(t1).Nanoseconds()
	if parallelNs > 0 {
		speedup = float64(serialNs) / float64(parallelNs)
	}
	return workers, serialNs, parallelNs, speedup
}

// DeterministicJSON marshals the seed-determined part of the report —
// everything except the wall-clock sections (Timing, ScalingTiming and
// the E15 Soak rows). Two runs at the same seed must produce
// byte-identical output; CI and the tests compare exactly this.
func (p *PerfReport) DeterministicJSON() []byte {
	d := PerfReport{Seed: p.Seed, Rows: p.Rows, Bakeoff: p.Bakeoff, Scaling: p.Scaling, Overlay: p.Overlay}
	b, _ := json.MarshalIndent(&d, "", "  ")
	return append(b, '\n')
}

// JSON marshals the full report, timing included.
func (p *PerfReport) JSON() []byte {
	b, _ := json.MarshalIndent(p, "", "  ")
	return append(b, '\n')
}
