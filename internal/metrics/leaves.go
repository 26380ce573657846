package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// Leaves is the static leaf-name table of one component type: built
// once, shared by every instance, and handed to Family.Join with each
// instance, whose lister names its instruments in the same order.
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

// ConcatLeaves returns one table holding the tables' names in order,
// for a component whose instruments span several parts.
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
// its View (ViewOf), per-name adoption (Scope.Register as f) and, as a
// method expression over the component type, its Family's lister.
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

// Family is a numbered set of components of one type, listed by one
// lister: member n's i-th instrument is named stem + n + "/" + the i-th
// name of its leaf table ("n1/transport/conn7/rd/retransmits"). Joining
// stores no name, func value or map entry, at any registry size. A nil
// *Family (from a nil Scope) is inert.
type Family[T any] struct {
	fam     family
	members []T
}

// family is the registry's side of a Family.
type family struct {
	reg    *Registry
	stem   string
	each   func(k int, f func(string, Instrument)) // lists member k
	seqs   []int                                   // member numbers, increasing
	leaves []*Leaves                               // member leaf tables
}

// NewFamily creates the family named stem under sc, listed by each. It
// panics on a stem that ends in a digit, or that equals or extends by
// a digit another family's, which could name the same instruments.
func NewFamily[T any](sc *Scope, stem string, each func(T, func(string, Instrument))) *Family[T] {
	if sc == nil {
		return nil
	}
	if stem == "" || isDigit(stem[len(stem)-1]) {
		panic(fmt.Sprintf("metrics: family stem %q is empty or ends in a digit", stem))
	}
	f := &Family[T]{}
	f.fam = family{reg: sc.reg, stem: Join(sc.prefix, stem),
		each: func(k int, visit func(string, Instrument)) { each(f.members[k], visit) }}
	sc.reg.mu.Lock()
	defer sc.reg.mu.Unlock()
	for _, g := range sc.reg.families {
		if extends(g.stem, f.fam.stem) || extends(f.fam.stem, g.stem) {
			panic(fmt.Sprintf("metrics: family %q overlaps family %q", f.fam.stem, g.stem))
		}
	}
	sc.reg.families[f.fam.stem] = &f.fam
	return f
}

// Join adds m as member seq, whose instruments leaves names. Numbers
// increase from one join to the next. A member name already
// registered panics, as Register would. A registry's first join also
// indexes the names registered so far (Registry.stems), once.
func (f *Family[T]) Join(seq int, leaves *Leaves, m T) {
	if f == nil {
		return
	}
	r, fam := f.fam.reg, &f.fam
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(fam.seqs); seq < 0 || n > 0 && seq <= fam.seqs[n-1] {
		panic(fmt.Sprintf("metrics: %s%d joins out of order", fam.stem, seq))
	}
	if r.stems == nil {
		r.stems = make(map[string]int)
		for name := range r.byName {
			memberForms(name, r.countStem)
		}
	}
	for i := 0; r.stems[fam.stem] > 0 && i < len(leaves.names); i++ {
		if name := fam.stem + strconv.Itoa(seq) + "/" + leaves.names[i]; r.byName[name] != nil {
			panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
		}
	}
	fam.seqs = append(fam.seqs, seq)
	fam.leaves = append(fam.leaves, leaves)
	f.members = append(f.members, m)
	r.members += len(leaves.names)
}

// memberForms calls visit with every way name reads as a member name,
// stem + n + "/" + leaf: n is a whole run of digits right before a
// "/", in canonical decimal, after a non-empty stem.
func memberForms(name string, visit func(stem string, seq int, leaf string)) {
	for i := 0; i < len(name); i++ {
		j := i
		for name[i] == '/' && j > 0 && isDigit(name[j-1]) {
			j--
		}
		if j == 0 || j == i || name[j] == '0' && i-j > 1 {
			continue
		}
		if seq, err := strconv.Atoi(name[j:i]); err == nil {
			visit(name[:j], seq, name[i+1:])
		}
	}
}

// instruments appends member k's instruments to out, in the order of
// its leaf table. A lister that disagrees with that table is a wiring
// bug, caught here, the first time the member is walked.
func (f *family) instruments(k int, out []Instrument) []Instrument {
	start := len(out)
	f.each(k, func(_ string, in Instrument) {
		if in == nil {
			panic(fmt.Sprintf("metrics: %s%d lists a nil instrument", f.stem, f.seqs[k]))
		}
		out = append(out, in)
	})
	if n := len(out) - start; n != len(f.leaves[k].names) {
		panic(fmt.Sprintf("metrics: %s%d lists %d instruments for %d leaf names", f.stem, f.seqs[k], n, len(f.leaves[k].names)))
	}
	return out
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// extends reports whether b is a or a followed by a digit.
func extends(a, b string) bool {
	return strings.HasPrefix(b, a) && (len(b) == len(a) || isDigit(b[len(a)]))
}
