package experiments

import (
	"sort"
	"strconv"
	"strings"
)

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

// Runner generates one experiment's Result from a Config.
type Runner func(Config) *Result

// registry maps canonical lower-case IDs ("e1".."e14", "e16") to runners
// whose Results are pure functions of the seed. Experiments
// self-register from init, so adding an experiment is one Register
// call — cmd/runreport, the benchmarks and the tests
// all pick it up through Run/RunAll/IDs with no switch to extend.
var registry = map[string]Runner{}

// wallRegistry holds the wall-clock experiments (e13soak, e15):
// runnable by id, but never part of RunAll — the determinism gate
// (runreport → BENCH_metrics.json) is explicitly pinned to the
// deterministic set, and a wall-paced result in that file would break
// its byte identity.
var wallRegistry = map[string]Runner{}

// Register adds a deterministic experiment runner under id. It panics
// on a duplicate or empty id: both are wiring bugs, not runtime
// conditions.
func Register(id string, fn Runner) {
	registerInto(registry, id, fn)
}

// RegisterWall adds a wall-clock experiment runner under id. Wall
// experiments run via Run (runreport -e <id>) but are excluded from
// RunAll and IDs, keeping them out of the determinism gate.
func RegisterWall(id string, fn Runner) {
	registerInto(wallRegistry, id, fn)
}

func registerInto(m map[string]Runner, id string, fn Runner) {
	id = strings.ToLower(strings.TrimSpace(id))
	if id == "" {
		panic("experiments: empty experiment id")
	}
	if fn == nil {
		panic("experiments: nil runner for " + id)
	}
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate experiment id " + id)
	}
	if _, dup := wallRegistry[id]; dup {
		panic("experiments: duplicate experiment id " + id)
	}
	m[id] = fn
}

// idOrder sorts "e<N>" numerically so E10/E11 follow E9 regardless of
// registration order (package init runs in file-name order, which
// would otherwise put e10 first).
func idOrder(id string) (int, string) {
	if len(id) > 1 && id[0] == 'e' {
		if n, err := strconv.Atoi(id[1:]); err == nil {
			return n, ""
		}
	}
	return 1 << 30, id // non-numeric ids sort after, lexically
}

// IDs lists every deterministic experiment in numeric order — the set
// RunAll (and with it the determinism gate) covers. Wall-clock
// experiments are listed by WallIDs.
func IDs() []string {
	return sortedIDs(registry)
}

// WallIDs lists the wall-clock experiments in numeric order.
func WallIDs() []string {
	return sortedIDs(wallRegistry)
}

func sortedIDs(m map[string]Runner) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ni, si := idOrder(ids[i])
		nj, sj := idOrder(ids[j])
		if ni != nj {
			return ni < nj
		}
		return si < sj
	})
	return ids
}

// Run executes the experiment registered under id (case-insensitive,
// deterministic or wall-clock), or returns nil if the id is unknown.
func Run(id string, cfg Config) *Result {
	key := strings.ToLower(strings.TrimSpace(id))
	fn := registry[key]
	if fn == nil {
		fn = wallRegistry[key]
	}
	if fn == nil {
		return nil
	}
	return fn(cfg)
}

// RunAll executes every deterministic experiment in numeric order.
// Wall-clock experiments never run here: RunAll feeds the byte-
// determinism gate, which is pinned to the sim backend.
func RunAll(cfg Config) []*Result {
	out := make([]*Result, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id](cfg))
	}
	return out
}
