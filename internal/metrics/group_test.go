package metrics

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// part is a stand-in component: two counters, a gauge and a histogram,
// all held by value and listed once.
type part struct {
	sent, lost Counter
	depth      Gauge
	rtt        Histogram
}

var partRTTBounds = []int64{1, 10, 100}

func newPart(seed int) *part {
	p := new(part)
	p.rtt.Init(partRTTBounds)
	p.sent.Add(uint64(seed))
	p.lost.Add(uint64(seed * 3))
	p.depth.Set(int64(-seed))
	for i := 0; i <= seed; i++ {
		p.rtt.Observe(int64(i * 7))
	}
	return p
}

func (p *part) each(f func(string, Instrument)) {
	f("rd/sent", &p.sent)
	f("rd/lost", &p.lost)
	f("osr/depth", &p.depth)
	f("rd/rtt_ms", &p.rtt)
}

var partLeaves = LeavesOf("", new(part).each)

// listOf is the lister of a group given as a plain slice.
func listOf(ins ...Instrument) Each {
	return func(f func(string, Instrument)) {
		for _, in := range ins {
			f("", in)
		}
	}
}

// TestGroupSnapshotMatchesPerLeaf: the same instruments adopted one
// name at a time and as groups snapshot to the same bytes — same
// names, same order, same values — with group names interleaving each
// other ("conn1/" sorts before "conn10/" sorts before "conn2/") and
// singly registered names around and between them.
func TestGroupSnapshotMatchesPerLeaf(t *testing.T) {
	prefixes := []string{"n1/conn1", "n1/conn10", "n1/conn2", "n1/conn1/rd", "n0/conn7", "n1/conn"}
	singles := []string{"n1/conn1/rd/sent0", "n1/conn1/rd", "n1/conn1-", "n1/conn10/osr", "a", "n1/dm/delivered", "z/z"}

	perLeaf, grouped := New(), New()
	for i, prefix := range prefixes {
		p := newPart(i + 1)
		p.each(perLeaf.Scope(prefix).Register)
		grouped.Adopt(prefix, partLeaves, p.each)
	}
	for i, name := range singles {
		c := &Counter{}
		c.Add(uint64(100 + i))
		perLeaf.Register(name, c)
		grouped.Register(name, c)
	}

	want, got := perLeaf.Snapshot().JSON(), grouped.Snapshot().JSON()
	if !bytes.Equal(want, got) {
		t.Fatalf("group adoption changed the snapshot:\nper-leaf:\n%s\ngrouped:\n%s", want, got)
	}
	if perLeaf.Len() != grouped.Len() || grouped.Len() != len(prefixes)*4+len(singles) {
		t.Fatalf("Len: per-leaf %d, grouped %d, want %d", perLeaf.Len(), grouped.Len(), len(prefixes)*4+len(singles))
	}
}

func TestScopeAdopt(t *testing.T) {
	reg := New()
	p := newPart(2)
	reg.Scope("n3").Sub("transport").Adopt("conn0", partLeaves, p.each)
	if got := reg.Snapshot().Value("n3/transport/conn0/rd/lost"); got != 6 {
		t.Fatalf("n3/transport/conn0/rd/lost = %d, want 6", got)
	}
	var sc *Scope
	sc.Adopt("conn0", partLeaves, p.each) // nil scope: must not panic
}

// TestGroupCollisions: a name is taken whether it was registered
// singly or inside a group, in whichever order the two arrive, and
// taking it twice panics at registration. Names that merely share a
// prefix do not collide.
func TestGroupCollisions(t *testing.T) {
	single := func(name string) func(*Registry) {
		return func(r *Registry) { r.Register(name, &Counter{}) }
	}
	group := func(prefix string, leaves ...string) func(*Registry) {
		return func(r *Registry) {
			ins := make([]Instrument, len(leaves))
			for i := range ins {
				ins[i] = &Counter{}
			}
			r.Adopt(prefix, NewLeaves(leaves...), listOf(ins...))
		}
	}
	cases := []struct {
		name          string
		first, second func(*Registry)
		collide       bool
	}{
		{"single then single", single("a/b/c"), single("a/b/c"), true},
		{"single then group", single("a/b/c"), group("a/b", "x", "c"), true},
		{"single then group, leaf with dir", single("a/b/c"), group("a", "x", "b/c"), true},
		{"group then single", group("a/b", "x", "c"), single("a/b/c"), true},
		{"group then single, leaf with dir", group("a", "x", "b/c"), single("a/b/c"), true},
		{"group then group, same prefix", group("a/b", "x", "c"), group("a/b", "c"), true},
		{"group then group, nested below", group("a", "b/c"), group("a/b", "c"), true},
		{"group then group, nested above", group("a/b", "c"), group("a", "b/c"), true},

		{"single beside group", group("a/b", "x", "c"), single("a/b/d"), false},
		{"single at group prefix", group("a/b", "c"), single("a/b"), false},
		{"single below group leaf", group("a/b", "c"), single("a/b/c/d"), false},
		{"group beside single", single("a/b/d"), group("a/b", "x", "c"), false},
		{"group over single's prefix", single("a/b"), group("a/b", "c"), false},
		{"disjoint groups, same prefix", group("a/b", "c"), group("a/b", "d"), false},
		{"disjoint groups, nested", group("a", "b/c"), group("a/b", "d"), false},
		{"groups whose prefixes share a stem", group("a/b1", "c"), group("a/b10", "c"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := New()
			tc.first(reg)
			before := reg.Len()
			defer func() {
				if got := recover() != nil; got != tc.collide {
					t.Fatalf("panicked = %v, want %v", got, tc.collide)
				}
				if tc.collide && reg.Len() != before {
					t.Fatalf("refused registration changed Len: %d -> %d", before, reg.Len())
				}
			}()
			tc.second(reg)
		})
	}
}

func TestAdoptRejectsMalformedGroups(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty prefix", func() { New().Adopt("", NewLeaves("a"), listOf(&Counter{})) })
	// A lister that disagrees with its leaf table is caught the first
	// time it is walked: by a snapshot or a by-name getter.
	walked := func(leaves *Leaves, each Each) *Registry {
		r := New()
		r.Adopt("p", leaves, each)
		return r
	}
	mustPanic("too few instruments", func() { walked(NewLeaves("a", "b"), listOf(&Counter{})).Snapshot() })
	mustPanic("too many instruments", func() { walked(NewLeaves("a"), listOf(&Counter{}, &Counter{})).Snapshot() })
	mustPanic("too few, getter", func() { walked(NewLeaves("a", "b"), listOf(&Counter{})).Counter("p/a") })
	mustPanic("nil instrument", func() { walked(NewLeaves("a"), listOf(nil)).Snapshot() })
	mustPanic("duplicate leaf", func() { NewLeaves("a", "a") })
	mustPanic("empty leaf", func() { NewLeaves("") })
}

// TestGettersSeeGroupedInstruments: Counter/Gauge/Histogram(name) on a
// name a group holds return the adopted instrument (not a fresh one),
// and reject a kind mismatch as they do for single names.
func TestGettersSeeGroupedInstruments(t *testing.T) {
	reg := New()
	p := newPart(1)
	reg.Adopt("n1/conn0", partLeaves, p.each)
	if got := reg.Counter("n1/conn0/rd/sent"); got != &p.sent {
		t.Fatal("Counter(name) did not return the adopted counter")
	}
	if got := reg.Gauge("n1/conn0/osr/depth"); got != &p.depth {
		t.Fatal("Gauge(name) did not return the adopted gauge")
	}
	if got := reg.Histogram("n1/conn0/rd/rtt_ms", 1); got != &p.rtt {
		t.Fatal("Histogram(name) did not return the adopted histogram")
	}
	if reg.Len() != 4 {
		t.Fatalf("getters created instruments: Len = %d, want 4", reg.Len())
	}
	// A name next to the group is still created on demand.
	reg.Counter("n1/conn0/rd/other").Inc()
	if reg.Len() != 5 || reg.Snapshot().Value("n1/conn0/rd/other") != 1 {
		t.Fatal("Counter(name) beside a group did not create a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge(name) on a grouped counter did not panic")
		}
	}()
	reg.Gauge("n1/conn0/rd/sent")
}

// TestConcurrentAdoption is the sharded-engine case: workers adopt
// groups and register single names at once (run under -race).
func TestConcurrentAdoption(t *testing.T) {
	const workers, perWorker = 8, 200
	reg := New()
	reg.Register("netsim/events", &Counter{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := reg.Scope(fmt.Sprintf("n%d", w)).Sub("transport")
			for i := 0; i < perWorker; i++ {
				p := newPart(i % 5)
				sc.Adopt(fmt.Sprintf("conn%d", i), partLeaves, p.each)
				if i%50 == 0 {
					sc.Counter(fmt.Sprintf("dm/c%d", i)).Inc()
					_ = reg.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	want := 1 + workers*perWorker*4 + workers*(perWorker/50)
	if reg.Len() != want {
		t.Fatalf("Len = %d, want %d", reg.Len(), want)
	}
	snap := reg.Snapshot()
	if len(snap.Samples) != want {
		t.Fatalf("snapshot has %d samples, want %d", len(snap.Samples), want)
	}
	for i := 1; i < len(snap.Samples); i++ {
		if snap.Samples[i-1].Name >= snap.Samples[i].Name {
			t.Fatalf("snapshot not strictly name-sorted at %q, %q", snap.Samples[i-1].Name, snap.Samples[i].Name)
		}
	}
}

// TestAdoptCostIndependentOfSize: adopting a group allocates the same
// whether it carries 4 instruments or 64, into an empty registry or
// one already holding 100 000 groups.
func TestAdoptCostIndependentOfSize(t *testing.T) {
	mk := func(n int) (*Leaves, Each) {
		names := make([]string, n)
		ins := make([]Instrument, n)
		for i := range names {
			names[i] = fmt.Sprintf("leaf%d", i)
			ins[i] = &Counter{}
		}
		return NewLeaves(names...), listOf(ins...)
	}
	measure := func(reg *Registry, leaves *Leaves, ins Each) float64 {
		prefixes := make([]string, 2001)
		for i := range prefixes {
			prefixes[i] = fmt.Sprintf("n1/transport/fresh%d", i)
		}
		i := 0
		return testing.AllocsPerRun(2000, func() {
			reg.Adopt(prefixes[i], leaves, ins)
			i++
		})
	}
	smallL, smallI := mk(4)
	bigL, bigI := mk(64)
	loaded := New()
	for i := 0; i < 100_000; i++ {
		loaded.Adopt(fmt.Sprintf("n1/transport/conn%d", i), smallL, smallI)
	}
	base := measure(New(), smallL, smallI)
	if got := measure(New(), bigL, bigI); got != base {
		t.Errorf("64-instrument group: %v allocs, 4-instrument group: %v", got, base)
	}
	if got := measure(loaded, smallL, smallI); got != base {
		t.Errorf("at 100k prior groups: %v allocs, empty registry: %v", got, base)
	}
	if base > 2 {
		t.Errorf("Adopt allocates %v objects, want <= 2 (group entry, amortised map growth)", base)
	}
}
