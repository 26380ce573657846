package metrics

import "fmt"

// Leaves is the static leaf-name table of one component type: built
// once, shared by every instance, and handed to Registry.Adopt with
// each instance's lister, which names its instruments in the same
// order.
type Leaves struct {
	names []string
	index map[string]int
}

// NewLeaves builds a table from names, which must be non-empty and
// distinct.
func NewLeaves(names ...string) *Leaves {
	l := &Leaves{names: names, index: make(map[string]int, len(names))}
	for i, n := range names {
		if n == "" {
			panic("metrics: empty leaf name")
		}
		if _, dup := l.index[n]; dup {
			panic(fmt.Sprintf("metrics: duplicate leaf name %q", n))
		}
		l.index[n] = i
	}
	return l
}

// Names returns the leaf names in table order.
func (l *Leaves) Names() []string { return l.names }

// ConcatLeaves returns one table holding the tables' names in order,
// for a component whose group spans several parts.
func ConcatLeaves(tables ...*Leaves) *Leaves {
	var names []string
	for _, t := range tables {
		names = append(names, t.names...)
	}
	return NewLeaves(names...)
}

// Each is how a component lists its instruments: it calls f once per
// instrument with its leaf name, always in the same order. Writing the
// list once as an Each gives the component its leaf table (LeavesOf),
// its View (ViewOf), per-name adoption (Scope.Register as f) and group
// adoption (Adopt keeps the Each itself).
type Each func(f func(leaf string, in Instrument))

// LeavesOf builds the leaf table of the component type whose
// instruments each lists; dir, when non-empty, prefixes every leaf
// ("rd" + "/" + "retransmits"). Only the names are used, so each may
// belong to a zero value of the type.
func LeavesOf(dir string, each Each) *Leaves {
	var names []string
	each(func(leaf string, _ Instrument) { names = append(names, Join(dir, leaf)) })
	return NewLeaves(names...)
}

// ViewOf projects the instruments each lists into a View keyed by leaf
// name; a histogram contributes its observation count.
func ViewOf(each Each) View {
	v := View{}
	each(func(leaf string, in Instrument) { v[leaf] = uint64(in.sample(leaf).Value) })
	return v
}
