package metrics

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Registry holds instruments under unique hierarchical names. The
// name table is mutex-guarded because registration can happen from
// concurrent shard workers (a transport connection joins its family
// when the SYN arrives, and two shards may accept connections inside
// the same lookahead window). The instruments themselves stay
// lock-free: each has a single writer (its owning node's shard), and
// snapshots are only taken while the workers are quiescent.
//
// Instruments arrive one name at a time (Register) or as numbered
// Family members, whose names are built only when asked for.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]Instrument
	families map[string]*family // by stem
	// stems counts single names of member form by stem, so a join checks
	// its names only if one could collide. Built by the first join.
	stems   map[string]int
	members int // instruments held by family members
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]Instrument), families: make(map[string]*family)}
}

// Register adopts an existing instrument under name. The name must be
// non-empty and unused; collisions panic because they are wiring bugs
// (two components claiming the same identity), not runtime conditions.
func (r *Registry) Register(name string, in Instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, in)
}

func (r *Registry) register(name string, in Instrument) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if in == nil {
		panic(fmt.Sprintf("metrics: nil instrument for %q", name))
	}
	if _, dup := r.lookup(name); dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.byName[name] = in
	if r.stems != nil {
		memberForms(name, r.countStem)
	}
}

func (r *Registry) countStem(stem string, _ int, _ string) { r.stems[stem]++ }

// lookup resolves a full name to its instrument, whether registered
// singly or held by a family member.
func (r *Registry) lookup(name string) (found Instrument, ok bool) {
	if in, ok := r.byName[name]; ok || len(r.families) == 0 {
		return in, ok
	}
	memberForms(name, func(stem string, seq int, leaf string) {
		f := r.families[stem]
		if f == nil {
			return
		}
		if k, member := slices.BinarySearch(f.seqs, seq); member {
			if j, has := f.leaves[k].index[leaf]; has {
				found = f.instruments(k, nil)[j]
			}
		}
	})
	return found, found != nil
}

// getOrMake returns the T registered under name, or registers mk()'s
// if name is free. It panics if name holds another instrument kind.
func getOrMake[T Instrument](r *Registry, name, kind string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.lookup(name); ok {
		t, isT := in.(T)
		if !isT {
			panic(fmt.Sprintf("metrics: %q is not a %s", name, kind))
		}
		return t
	}
	t := mk()
	r.register(name, t)
	return t
}

// Counter returns the counter registered under name, creating one if
// absent. It panics if name is held by a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	return getOrMake(r, name, KindCounter, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating one if
// absent. It panics if name is held by a different instrument kind.
func (r *Registry) Gauge(name string) *Gauge {
	return getOrMake(r, name, KindGauge, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating one
// with the given bounds if absent.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	return getOrMake(r, name, KindHistogram, func() *Histogram { return NewHistogram(bounds...) })
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName) + r.members
}

// Scope returns a scope that prefixes names with prefix + "/".
func (r *Registry) Scope(prefix string) *Scope {
	return &Scope{reg: r, prefix: prefix}
}

// Snapshot captures every instrument as plain data, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	type named struct {
		name string
		in   Instrument
	}
	all := make([]named, 0, len(r.byName)+r.members)
	for n, in := range r.byName {
		all = append(all, named{n, in})
	}
	var buf []byte // "<stem><n>/<leaf>", grown once and reused
	var ins []Instrument
	for _, f := range r.families {
		for k, seq := range f.seqs {
			buf = append(strconv.AppendInt(append(buf[:0], f.stem...), int64(seq), 10), '/')
			n := len(buf)
			ins = f.instruments(k, ins[:0])
			for i, in := range ins {
				buf = append(buf[:n], f.leaves[k].names[i]...)
				all = append(all, named{string(buf), in})
			}
		}
	}
	slices.SortFunc(all, func(a, b named) int { return strings.Compare(a.name, b.name) })
	s := Snapshot{Samples: make([]Sample, 0, len(all))}
	for _, e := range all {
		s.Samples = append(s.Samples, e.in.sample(e.name))
	}
	return s
}

// Scope is a named subtree of a registry. A nil *Scope is valid and
// inert: Register is a no-op and the getters hand back detached
// instruments, so components instrument themselves unconditionally and
// work identically with or without a registry attached.
type Scope struct {
	reg    *Registry
	prefix string
}

// Join concatenates name parts with "/", skipping empty parts.
func Join(parts ...string) string {
	if !slices.Contains(parts, "") {
		return strings.Join(parts, "/")
	}
	kept := parts[:0:0]
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}

// Sub returns a child scope one level down.
func (s *Scope) Sub(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, prefix: Join(s.prefix, name)}
}

// Register adopts in under the scope's prefix. No-op on a nil scope.
func (s *Scope) Register(name string, in Instrument) {
	if s == nil {
		return
	}
	s.reg.Register(Join(s.prefix, name), in)
}

// Counter returns (creating if needed) a counter in this scope, or a
// detached counter on a nil scope.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return &Counter{}
	}
	return s.reg.Counter(Join(s.prefix, name))
}

// Gauge returns (creating if needed) a gauge in this scope, or a
// detached gauge on a nil scope.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return &Gauge{}
	}
	return s.reg.Gauge(Join(s.prefix, name))
}

// Histogram returns (creating if needed) a histogram in this scope, or
// a detached one on a nil scope.
func (s *Scope) Histogram(name string, bounds ...int64) *Histogram {
	if s == nil {
		return NewHistogram(bounds...)
	}
	return s.reg.Histogram(Join(s.prefix, name), bounds...)
}
