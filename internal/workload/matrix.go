package workload

import "repro/internal/transport/harness"

// MatrixKinds is the E11 stack axis: both implementations, native
// wire format each, driven through the identical engine code path.
var MatrixKinds = []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic}

// MatrixFlows is the E11 flow-scaling axis.
var MatrixFlows = []int{10, 100, 1000}

// Cell is one (flows × stack) entry of the E11 matrix.
type Cell struct {
	Flows  int
	Kind   harness.Kind
	Report *Report
}

// MatrixOn runs the flow-scaling sweep on an explicit backend ("" =
// default sim). The byte-determinism contract makes every Cell.Report
// identical across "sim" and "sharded[:N]" — E11 run through a sharded
// world is the experiment-level leg of the determinism gate's sharded
// cells.
func MatrixOn(backend string, seed int64, flowCounts []int, kinds []harness.Kind) []Cell {
	var cells []Cell
	for _, flows := range flowCounts {
		for _, kind := range kinds {
			rep := Run(Config{Seed: seed, Backend: backend, Flows: flows, Client: kind, Server: kind})
			cells = append(cells, Cell{Flows: flows, Kind: kind, Report: rep})
		}
	}
	return cells
}
