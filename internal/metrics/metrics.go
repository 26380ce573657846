// Package metrics is the repository's observability substrate: a
// deterministic, allocation-light registry of counters, gauges and
// histograms keyed by hierarchical slash-separated names such as
// "n1/network/forwarding/forwarded" (node/layer/sublayer/metric).
//
// The design follows three rules:
//
//   - Instruments are usable as zero values. Components embed Counter
//     and Gauge fields by value, so instrumentation costs nothing when
//     no registry is attached and a single struct allocation when one
//     is.
//   - Registration is adoption, not creation. A component keeps its
//     counters as ordinary fields (the single source of truth) and a
//     Scope adopts pointers to them under hierarchical names — one
//     name at a time (Register), or a whole component as a numbered
//     Family member whose names are built only when a snapshot asks.
//     The old per-package Stats() snapshot structs are replaced by
//     View maps built from the same fields.
//   - Snapshots are deterministic. Samples are sorted by name and hold
//     only plain integers, so two runs of the same seeded simulation
//     marshal to byte-identical JSON.
package metrics

import "fmt"

// Instrument is the closed set of metric kinds a Registry can hold:
// *Counter, *Gauge, *Histogram and CounterSum.
type Instrument interface {
	sample(name string) Sample
}

// Counter is a monotonically increasing uint64. The zero value is
// ready to use.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

func (c *Counter) sample(name string) Sample {
	return Sample{Name: name, Kind: KindCounter, Value: int64(c.v)}
}

// CounterSum is an aggregate instrument: it samples as one counter
// whose value is the sum of its parts. The sharded simulator backend
// uses it to keep per-shard counters (each with a single writer — the
// discipline that replaces atomics) while exporting the exact metric
// names and totals the sequential simulator registers, so metrics
// snapshots stay byte-identical across engines.
type CounterSum []*Counter

// Value returns the sum of the parts.
func (s CounterSum) Value() uint64 {
	var total uint64
	for _, c := range s {
		total += c.v
	}
	return total
}

func (s CounterSum) sample(name string) Sample {
	return Sample{Name: name, Kind: KindCounter, Value: int64(s.Value())}
}

// Gauge is an instantaneous int64 level (queue depth, window size).
// The zero value is ready to use.
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Add moves the level by d (which may be negative).
func (g *Gauge) Add(d int64) { g.v += d }

func (g *Gauge) sample(name string) Sample {
	return Sample{Name: name, Kind: KindGauge, Value: g.v}
}

// MaxBounds is the most bucket bounds a Histogram takes. The counts
// live in a fixed array of MaxBounds+1 buckets, so a component holds
// its histogram by value, like a Counter: no object of its own.
const MaxBounds = 15

// Histogram counts int64 observations into fixed buckets. Bounds are
// inclusive upper edges in ascending order; observations above the
// last bound land in an implicit overflow bucket. Histograms of one
// kind share their bounds slice; only the counts are per instance.
type Histogram struct {
	bounds []int64
	counts [MaxBounds + 1]uint64
	sum    int64
	n      uint64
}

// NewHistogram builds a histogram with the given ascending inclusive
// upper bounds: at least one, at most MaxBounds.
func NewHistogram(bounds ...int64) *Histogram {
	h := new(Histogram)
	h.Init(bounds)
	return h
}

// Init readies a histogram held by value. It keeps bounds, which the
// caller must not modify afterwards.
func (h *Histogram) Init(bounds []int64) {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if len(bounds) > MaxBounds {
		panic(fmt.Sprintf("metrics: histogram has %d bucket bounds, at most %d fit", len(bounds), MaxBounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	*h = Histogram{bounds: bounds}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

func (h *Histogram) sample(name string) Sample {
	s := Sample{Name: name, Kind: KindHistogram, Value: int64(h.n), Sum: h.sum}
	for i, b := range h.bounds {
		if h.counts[i] > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: b, N: h.counts[i]})
		}
	}
	if over := h.counts[len(h.bounds)]; over > 0 {
		s.Buckets = append(s.Buckets, Bucket{Le: -1, N: over})
	}
	return s
}

// Instrumented is implemented by components that can adopt their
// instruments into a registry scope. BindMetrics must tolerate a nil
// scope (all Scope methods are nil-safe no-ops).
type Instrumented interface {
	BindMetrics(sc *Scope)
}

// View is a component-local, read-only projection of its instruments —
// the thin accessor that replaced the per-package Stats snapshot
// structs. Keys are metric leaf names ("retransmits", "queue_drop").
type View map[string]uint64

// Get returns the named value, or 0 if absent.
func (v View) Get(name string) uint64 { return v[name] }
