package experiments

import "strings"

// Config parameterizes one experiment run.
type Config struct {
	// Seed drives every simulated world the experiment builds; the
	// same seed yields a byte-identical Result.
	Seed int64
	// TraceDir, when non-empty, turns on causal tracing for the
	// experiments that support it (E10, E11): each traced world gets a
	// flight-recorder dump written as deterministic JSON under this
	// directory, plus a pcapng capture for the aborting chaos
	// scenario. Tracing is observational — the Result is byte-identical
	// with or without it.
	TraceDir string
	// Backend overrides the substrate for the world-based experiments
	// ("" keeps the default "sim"). With "sharded[:N]" the determinism
	// gate doubles as the parallel-correctness oracle: results must be
	// byte-identical to the sequential run. Experiments with their own
	// serial oracle (E14's codec tracer) or bare simulators (E1, E2)
	// pin their backend and ignore the override.
	Backend string
}

// table is every experiment, in manifest order: first the
// deterministic ones, whose Results are pure functions of the seed —
// the set RunAll, and with it BENCH_metrics.json and the determinism
// gate, covers — then the wall-clock soaks. Those run only when named
// (runreport -e <id>): their numbers are real time, and one in the
// manifest would break its byte identity. cmd/runreport, the tests and
// the docs all cite this one list, so a new experiment is one line
// here.
var table = []struct {
	id   string
	wall bool
	run  func(Config) *Result
}{
	{"e1", false, E1DataLink},
	{"e2", false, E2Routing},
	{"e3", false, E3SublayeredTCP},
	{"e4", false, E4Interop},
	{"e5", false, E5Stuffing},
	{"e6", false, E6Entanglement},
	{"e7", false, E7Performance},
	{"e8", false, E8Replace},
	{"e9", false, E9Offload},
	{"e10", false, E10ChaosSoak},
	{"e11", false, E11FlowScaling},
	{"e12", false, E12CCBakeoff},
	{"e13", false, E13Overlay},
	{"e14", false, E14CorpusReplay},
	{"e16", false, E16ShardScaling},
	{"e13soak", true, E13OverlaySoak},
	{"e15", true, E15BackendSoak},
}

// IDs lists the deterministic experiments in table order — the set
// RunAll covers.
func IDs() []string { return ids(false) }

// WallIDs lists the wall-clock experiments in table order.
func WallIDs() []string { return ids(true) }

func ids(wall bool) []string {
	var out []string
	for _, e := range table {
		if e.wall == wall {
			out = append(out, e.id)
		}
	}
	return out
}

// Run executes the experiment with this id (case-insensitive,
// deterministic or wall-clock), or returns nil if the id is unknown.
func Run(id string, cfg Config) *Result {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range table {
		if e.id == id {
			return e.run(cfg)
		}
	}
	return nil
}

// RunAll executes every deterministic experiment in table order.
// Wall-clock experiments never run here: RunAll feeds the byte-
// determinism gate, which is pinned to the simulator backends.
func RunAll(cfg Config) []*Result {
	var out []*Result
	for _, e := range table {
		if !e.wall {
			out = append(out, e.run(cfg))
		}
	}
	return out
}
