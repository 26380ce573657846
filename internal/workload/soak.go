package workload

import (
	"time"

	"repro/internal/transport/harness"
)

// SoakFlows is the E15 flow axis: the E11 matrix's 10- and 100-flow
// points. The 1000-flow point is omitted — real-time backends pace the
// arrival schedule on the wall clock, and a thousand staggered flows
// would turn a CI gate into a minutes-long soak.
var SoakFlows = []int{10, 100}

// SoakBackends lists the real-time backends the soak covers, in run
// order. UDP rows are skipped (not failed) where loopback sockets are
// unavailable.
var SoakBackends = []string{harness.BackendChan, harness.BackendUDP}

// SoakRow is one E15 cell: a workload run on a real-time backend with
// its wall-clock cost. Nothing here is deterministic — goodput and
// events/sec are real wall-clock measurements — so no committed file
// carries it.
type SoakRow struct {
	Backend        string
	Stack          string
	Flows          int
	Completed      int
	Failed         int
	BytesDelivered uint64
	WallMs         int64
	GoodputBps     uint64 // delivered bits over wall time
	EventsPerSec   float64
	Violations     int
}

// SoakConfig is the compressed-schedule workload for one E15 cell: the
// same engine and invariants as E11, but with arrival windows squeezed
// from seconds to fractions of a second so a cell costs about a second
// of wall clock instead of a simulated quarter hour.
func SoakConfig(seed int64, backend string, kind harness.Kind, flows int) Config {
	return Config{
		Seed:    seed,
		Backend: backend,
		Flows:   flows,
		Client:  kind,
		Server:  kind,
		MinSize: 2 * 1024, MaxSize: 16 * 1024,
		OnPeriod: 250 * time.Millisecond, OffPeriod: 50 * time.Millisecond,
		Cycles: 2,
		Budget: 30 * time.Second, // wall-clock bound on real-time backends
	}
}

// Soak runs the E15 backend matrix: every (backend × stack × flows)
// cell through the unchanged workload engine, measuring wall-clock
// goodput and event throughput. Cells on an unavailable backend are
// skipped silently — callers that need to report the skip check
// harness.UDPAvailable themselves.
func Soak(seed int64, backendKinds []string, flowCounts []int, kinds []harness.Kind) []SoakRow {
	var rows []SoakRow
	for _, be := range backendKinds {
		if be == harness.BackendUDP && !harness.UDPAvailable() {
			continue
		}
		for _, flows := range flowCounts {
			for _, kind := range kinds {
				rows = append(rows, soakCell(seed, be, kind, flows))
			}
		}
	}
	return rows
}

// soakCell runs one cell and folds the report into a SoakRow.
func soakCell(seed int64, backend string, kind harness.Kind, flows int) SoakRow {
	t0 := time.Now()
	rep := Run(SoakConfig(seed, backend, kind, flows))
	wall := time.Since(t0)
	row := SoakRow{
		Backend: backend, Stack: rep.Stack, Flows: flows,
		Completed: rep.Completed, Failed: rep.Failed,
		BytesDelivered: rep.BytesDelivered,
		WallMs:         wall.Milliseconds(),
		Violations:     len(rep.Violations),
	}
	if s := wall.Seconds(); s > 0 {
		row.GoodputBps = uint64(float64(rep.BytesDelivered*8) / s)
		row.EventsPerSec = float64(rep.Events) / s
	}
	return row
}
