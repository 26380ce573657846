package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Registry holds instruments under unique hierarchical names. The
// name table is mutex-guarded because registration can happen from
// concurrent shard workers (a transport connection adopts its group
// when the SYN arrives, and two shards may accept connections inside
// the same lookahead window). The instruments themselves stay
// lock-free: each has a single writer (its owning node's shard), and
// snapshots are only taken while the workers are quiescent.
//
// Instruments arrive one name at a time (Register) or as a group
// (Adopt: one prefix, a shared leaf-name table, the component's own
// lister). A group costs one table entry however many instruments it
// carries; its full names, and the instruments themselves, are asked
// for only in Snapshot.
type Registry struct {
	mu     sync.Mutex
	byName map[string]Instrument
	// paths indexes the name tree once the first group arrives: every
	// proper ancestor path of a registered name is a key, and a
	// non-nil value is the chain of groups adopted at exactly that
	// path. An absent key therefore proves nothing is registered
	// beneath it, which is what lets Adopt skip the per-leaf duplicate
	// check. Nil while no group exists, so group-free registries pay
	// nothing for it.
	paths   map[string]*group
	grouped int // instruments held by groups
}

// group is one Adopt call: the i-th instrument each lists is named
// prefix + "/" + leaves.names[i].
type group struct {
	prefix string
	leaves *Leaves
	each   Each
	next   *group // another group adopted at the same prefix
}

// list calls f with every instrument of the group and its index in
// the leaf table. A lister that disagrees with the table it was
// adopted under is a wiring bug, caught here, the first time the list
// is walked.
func (g *group) list(f func(i int, in Instrument)) {
	names := g.leaves.names
	n := 0
	g.each(func(_ string, in Instrument) {
		if n < len(names) {
			if in == nil {
				panic(fmt.Sprintf("metrics: nil instrument for %q", g.prefix+"/"+names[n]))
			}
			f(n, in)
		}
		n++
	})
	if n != len(names) {
		panic(fmt.Sprintf("metrics: group %q lists %d instruments for %d leaf names", g.prefix, n, len(names)))
	}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]Instrument)}
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
	if r.paths != nil {
		r.markAncestors(name)
	}
}

// Adopt registers a component's instruments as one group: the i-th
// instrument each lists takes the name prefix + "/" +
// leaves.Names()[i]. The registry keeps each — the component's own
// lister, so the component holds its instruments as plain fields and
// nothing per instrument is retained here — and calls it, and builds
// the full names, only in Snapshot and the by-name getters; adoption
// costs the same few map operations whatever the group's size and the
// registry's. Names collide exactly as if each had been passed to
// Register, and a collision panics here, at adoption; a lister that
// does not match leaves panics when first walked.
func (r *Registry) Adopt(prefix string, leaves *Leaves, each Each) {
	if prefix == "" {
		panic("metrics: empty group prefix")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.paths == nil {
		r.paths = make(map[string]*group)
		for name := range r.byName {
			r.markAncestors(name)
		}
	}
	if r.mayHoldNamesUnder(prefix) {
		for _, leaf := range leaves.names {
			if _, dup := r.lookup(prefix + "/" + leaf); dup {
				panic(fmt.Sprintf("metrics: duplicate metric name %q", prefix+"/"+leaf))
			}
		}
	}
	r.paths[prefix] = &group{prefix: prefix, leaves: leaves, each: each, next: r.paths[prefix]}
	r.markAncestors(prefix)
	r.grouped += len(leaves.names)
}

// markAncestors records every proper ancestor path of name in paths.
// It stops at the first one already present: whoever added that one
// added its ancestors too.
func (r *Registry) markAncestors(name string) {
	for i := strings.LastIndexByte(name, '/'); i >= 0; i = strings.LastIndexByte(name[:i], '/') {
		if _, ok := r.paths[name[:i]]; ok {
			return
		}
		r.paths[name[:i]] = nil
	}
}

// mayHoldNamesUnder reports whether some registered name could start
// with prefix + "/": prefix is an ancestor of a registered name (or
// holds a group already), or a group sits at an ancestor of prefix
// and may have leaves reaching below it.
func (r *Registry) mayHoldNamesUnder(prefix string) bool {
	if _, ok := r.paths[prefix]; ok {
		return true
	}
	for i := strings.LastIndexByte(prefix, '/'); i >= 0; i = strings.LastIndexByte(prefix[:i], '/') {
		if r.paths[prefix[:i]] != nil {
			return true
		}
	}
	return false
}

// lookup resolves a full name to its instrument, whether registered
// singly or inside a group.
func (r *Registry) lookup(name string) (Instrument, bool) {
	if in, ok := r.byName[name]; ok {
		return in, true
	}
	if r.paths == nil {
		return nil, false
	}
	for i := strings.LastIndexByte(name, '/'); i >= 0; i = strings.LastIndexByte(name[:i], '/') {
		for g := r.paths[name[:i]]; g != nil; g = g.next {
			if j, ok := g.leaves.index[name[i+1:]]; ok {
				var found Instrument
				g.list(func(k int, in Instrument) {
					if k == j {
						found = in
					}
				})
				return found, true
			}
		}
	}
	return nil, false
}

// Counter returns the counter registered under name, creating one if
// absent. It panics if name is held by a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.lookup(name); ok {
		c, isC := in.(*Counter)
		if !isC {
			panic(fmt.Sprintf("metrics: %q is not a counter", name))
		}
		return c
	}
	c := &Counter{}
	r.register(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating one if
// absent. It panics if name is held by a different instrument kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.lookup(name); ok {
		g, isG := in.(*Gauge)
		if !isG {
			panic(fmt.Sprintf("metrics: %q is not a gauge", name))
		}
		return g
	}
	g := &Gauge{}
	r.register(name, g)
	return g
}

// Histogram returns the histogram registered under name, creating one
// with the given bounds if absent.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.lookup(name); ok {
		h, isH := in.(*Histogram)
		if !isH {
			panic(fmt.Sprintf("metrics: %q is not a histogram", name))
		}
		return h
	}
	h := NewHistogram(bounds...)
	r.register(name, h)
	return h
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName) + r.grouped
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
	all := make([]named, 0, len(r.byName)+r.grouped)
	for n, in := range r.byName {
		all = append(all, named{n, in})
	}
	for _, g := range r.paths {
		for ; g != nil; g = g.next {
			g.list(func(i int, in Instrument) {
				all = append(all, named{g.prefix + "/" + g.leaves.names[i], in})
			})
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

// Adopt adopts the instruments each lists as one group named name
// under the scope's prefix (see Registry.Adopt). No-op on a nil scope.
func (s *Scope) Adopt(name string, leaves *Leaves, each Each) {
	if s == nil {
		return
	}
	s.reg.Adopt(Join(s.prefix, name), leaves, each)
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
