package metrics

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// part is a stand-in component: two counters, a gauge and a histogram,
// all held by value and listed once, plus a fifth counter when extra
// is set (as a connection lists its manager's instruments only when
// the manager has some).
type part struct {
	sent, lost Counter
	depth      Gauge
	rtt        Histogram
	extra      bool
	resets     Counter
}

var partRTTBounds = []int64{1, 10, 100}

func newPart(seed int, extra bool) *part {
	p := &part{extra: extra}
	p.rtt.Init(partRTTBounds)
	p.sent.Add(uint64(seed))
	p.lost.Add(uint64(seed * 3))
	p.depth.Set(int64(-seed))
	p.resets.Add(uint64(seed * 5))
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
	if p.extra {
		f("cm/resets", &p.resets)
	}
}

var (
	partLeaves      = LeavesOf("", new(part).each)
	extraPartLeaves = LeavesOf("", (&part{extra: true}).each)
)

func (p *part) leaves() *Leaves {
	if p.extra {
		return extraPartLeaves
	}
	return partLeaves
}

// eachOf is the lister of a family whose members are plain slices.
func eachOf(ins []Instrument, f func(string, Instrument)) {
	for _, in := range ins {
		f("", in)
	}
}

// TestGroupSnapshotMatchesPerLeaf: the same instruments registered
// one name at a time and as family members (each member one group of
// instruments) snapshot to the same bytes
// — same names, same order, same values — with members interleaving
// each other ("conn1/" sorts before "conn10/" sorts before "conn2/"),
// members of one family carrying different leaf tables, and singly
// registered names around and between them.
func TestGroupSnapshotMatchesPerLeaf(t *testing.T) {
	type join struct {
		scope, stem string
		seq         int
		extra       bool
	}
	joins := []join{
		{"n0", "conn", 7, false},
		{"n1", "conn", 1, true},
		{"n1", "conn", 2, false},
		{"n1", "conn", 10, true},
		{"n1", "flow", 0, false},
		{"n1", "flow", 3, true},
	}
	singles := []string{"n1/conn1/rd/sent0", "n1/conn1/rd", "n1/conn1-", "n1/conn1a", "n1/conn1a/rd/sent",
		"n1/conn01/rd/sent", "n1/conn10/osr", "n1/conn", "n1/conn/x", "a", "n1/dm/delivered", "z/z"}

	perLeaf, families := New(), New()
	fams := map[string]*Family[*part]{}
	for i, j := range joins {
		p := newPart(i+1, j.extra)
		p.each(perLeaf.Scope(fmt.Sprintf("%s/%s%d", j.scope, j.stem, j.seq)).Register)
		f := fams[j.scope+"/"+j.stem]
		if f == nil {
			f = NewFamily(families.Scope(j.scope), j.stem, (*part).each)
			fams[j.scope+"/"+j.stem] = f
		}
		f.Join(j.seq, p.leaves(), p)
	}
	for i, name := range singles {
		c := &Counter{}
		c.Add(uint64(100 + i))
		perLeaf.Register(name, c)
		families.Register(name, c)
	}

	want, got := perLeaf.Snapshot(), families.Snapshot()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("family members changed the snapshot:\nper-leaf:\n%s\nfamilies:\n%s", want.Text(), got.Text())
	}
	if n := 6*4 + 3 + len(singles); perLeaf.Len() != families.Len() || families.Len() != n {
		t.Fatalf("Len: per-leaf %d, families %d, want %d", perLeaf.Len(), families.Len(), n)
	}
}

func TestScopeFamily(t *testing.T) {
	reg := New()
	p := newPart(2, false)
	NewFamily(reg.Scope("n3").Sub("transport"), "conn", (*part).each).Join(0, partLeaves, p)
	if got, _ := reg.Snapshot().Get("n3/transport/conn0/rd/lost"); got.Value != 6 {
		t.Fatalf("n3/transport/conn0/rd/lost = %d, want 6", got.Value)
	}
	var sc *Scope
	f := NewFamily(sc, "conn", (*part).each)
	if f != nil {
		t.Fatal("NewFamily on a nil scope returned a family")
	}
	f.Join(0, partLeaves, p) // nil family: must not panic
}

// TestGroupCollisions: a name is taken whether it was registered
// singly or by a family member (a "group" in the case names: the
// instruments one component lists under its member path), in
// whichever order the two arrive, and taking it twice panics at
// registration. Names that merely share a prefix do not collide;
// families whose names could overlap are refused when the second is
// created.
func TestGroupCollisions(t *testing.T) {
	type fams map[string]*Family[[]Instrument]
	type step = func(*Registry, fams)
	family := func(stem string) step {
		return func(r *Registry, fs fams) { fs[stem] = NewFamily(r.Scope(""), stem, eachOf) }
	}
	member := func(stem string, seq int, leaves ...string) step {
		return func(r *Registry, fs fams) {
			if fs[stem] == nil {
				family(stem)(r, fs)
			}
			ins := make([]Instrument, len(leaves))
			for i := range ins {
				ins[i] = &Counter{}
			}
			fs[stem].Join(seq, NewLeaves(leaves...), ins)
		}
	}
	single := func(name string) step {
		return func(r *Registry, _ fams) { r.Register(name, &Counter{}) }
	}
	cases := []struct {
		name    string
		steps   []step // the last one is the one judged
		collide bool
	}{
		{"single then single", []step{single("a/b/c"), single("a/b/c")}, true},
		{"single then group", []step{single("a/c1/y"), member("a/c", 1, "x", "y")}, true},
		{"single then group, leaf with dir", []step{single("a/c1/b/y"), member("a/c", 1, "x", "b/y")}, true},
		{"family, single, then group", []step{family("a/c"), single("a/c1/y"), member("a/c", 1, "x", "y")}, true},
		{"group, single, then group", []step{member("a/c", 1, "y"), single("a/c2/y"), member("a/c", 2, "x", "y")}, true},
		{"group then single", []step{member("a/c", 1, "x", "y"), single("a/c1/y")}, true},
		{"group then single, leaf with dir", []step{member("a/c", 1, "x", "b/y"), single("a/c1/b/y")}, true},
		{"group then group, same prefix", []step{member("a/c", 1, "x", "y"), member("a/c", 1, "y")}, true},
		{"group then group, lower number", []step{member("a/c", 2, "x"), member("a/c", 1, "y")}, true},
		{"group then group, nested below", []step{member("a/c", 1, "d/e2/y"), member("a/c1/d/e", 2, "y")}, true},
		{"group then group, nested above", []step{member("a/c1/d/e", 2, "y"), member("a/c", 1, "d/e2/y")}, true},
		{"family then family, same stem", []step{family("a/c"), family("a/c")}, true},

		{"single beside group", []step{member("a/c", 1, "x", "y"), single("a/c1/z")}, false},
		{"single at group prefix", []step{member("a/c", 1, "y"), single("a/c1")}, false},
		{"single below group leaf", []step{member("a/c", 1, "y"), single("a/c1/y/d")}, false},
		{"single with a padded number", []step{member("a/c", 1, "y"), single("a/c01/y")}, false},
		{"single whose number runs on", []step{member("a/c", 1, "y"), single("a/c1a/y")}, false},
		{"single at the stem", []step{member("a/c", 1, "y"), single("a/c/y")}, false},
		{"group beside single", []step{single("a/c1/z"), member("a/c", 1, "x", "y")}, false},
		{"group beside single, family first", []step{family("a/c"), single("a/c1/z"), member("a/c", 1, "y")}, false},
		{"group over single's prefix", []step{single("a/c1"), member("a/c", 1, "y")}, false},
		{"disjoint groups, same prefix", []step{member("a/c", 1, "y"), member("a/d", 1, "y")}, false},
		{"disjoint groups, nested", []step{member("a/c", 1, "y"), member("a/c/d", 1, "y")}, false},
		{"groups whose prefixes share a stem", []step{member("a/c", 1, "y"), member("a/c", 10, "y")}, false},
		{"families whose stems share a stem", []step{member("a/c", 1, "y"), member("a/cx", 1, "y")}, false},
		{"same number in two families", []step{member("a/c", 1, "y"), member("b/c", 1, "y")}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, fs := New(), fams{}
			last := len(tc.steps) - 1
			for _, step := range tc.steps[:last] {
				step(reg, fs)
			}
			before := reg.Len()
			defer func() {
				if got := recover() != nil; got != tc.collide {
					t.Fatalf("panicked = %v, want %v", got, tc.collide)
				}
				if tc.collide && reg.Len() != before {
					t.Fatalf("refused registration changed Len: %d -> %d", before, reg.Len())
				}
			}()
			tc.steps[last](reg, fs)
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
	mustPanic("empty stem", func() { NewFamily(New().Scope("n1"), "", eachOf) })
	mustPanic("stem ending in a digit", func() { NewFamily(New().Scope("n1"), "conn6", eachOf) })
	mustPanic("negative number", func() {
		NewFamily(New().Scope("n1"), "c", eachOf).Join(-1, NewLeaves("a"), []Instrument{&Counter{}})
	})
	// A lister that disagrees with its member's leaf table is caught the
	// first time the member is walked: by a snapshot or a by-name getter.
	walked := func(leaves *Leaves, ins ...Instrument) *Registry {
		r := New()
		NewFamily(r.Scope(""), "p", eachOf).Join(0, leaves, ins)
		return r
	}
	mustPanic("too few instruments", func() { walked(NewLeaves("a", "b"), &Counter{}).Snapshot() })
	mustPanic("too many instruments", func() { walked(NewLeaves("a"), &Counter{}, &Counter{}).Snapshot() })
	mustPanic("too few, getter", func() { walked(NewLeaves("a", "b"), &Counter{}).Counter("p0/a") })
	mustPanic("nil instrument", func() { walked(NewLeaves("a"), nil).Snapshot() })
	mustPanic("duplicate leaf", func() { NewLeaves("a", "a") })
	mustPanic("empty leaf", func() { NewLeaves("") })
}

// TestGettersSeeGroupedInstruments: Counter/Gauge/Histogram(name) on a name
// a family member holds return the member's instrument (not a fresh
// one), and reject a kind mismatch as they do for single names.
func TestGettersSeeGroupedInstruments(t *testing.T) {
	reg := New()
	p := newPart(1, true)
	NewFamily(reg.Scope("n1"), "conn", (*part).each).Join(0, p.leaves(), p)
	if got := reg.Counter("n1/conn0/rd/sent"); got != &p.sent {
		t.Fatal("Counter(name) did not return the member's counter")
	}
	if got := reg.Counter("n1/conn0/cm/resets"); got != &p.resets {
		t.Fatal("Counter(name) did not return the member's extra counter")
	}
	if got := reg.Gauge("n1/conn0/osr/depth"); got != &p.depth {
		t.Fatal("Gauge(name) did not return the member's gauge")
	}
	if got := reg.Histogram("n1/conn0/rd/rtt_ms", 1); got != &p.rtt {
		t.Fatal("Histogram(name) did not return the member's histogram")
	}
	if reg.Len() != 5 {
		t.Fatalf("getters created instruments: Len = %d, want 5", reg.Len())
	}
	// A name beside the member, or under an absent member, is still
	// created on demand.
	reg.Counter("n1/conn0/rd/other").Inc()
	reg.Counter("n1/conn1/rd/sent").Inc()
	if other, _ := reg.Snapshot().Get("n1/conn0/rd/other"); reg.Len() != 7 || other.Value != 1 {
		t.Fatal("Counter(name) beside a member did not create a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge(name) on a member's counter did not panic")
		}
	}()
	reg.Gauge("n1/conn0/rd/sent")
}

// TestConcurrentAdoption is the sharded-engine case: workers each join
// their own stack's family and register single names at once (run
// under -race by `make race-shard`).
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
			conns := NewFamily(sc, "conn", (*part).each)
			for i := 0; i < perWorker; i++ {
				p := newPart(i%5, i%2 == 0)
				conns.Join(i, p.leaves(), p)
				if i%50 == 0 {
					sc.Counter(fmt.Sprintf("dm/c%d", i)).Inc()
					_ = reg.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	want := 1 + workers*perWorker*4 + workers*perWorker/2 + workers*(perWorker/50)
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

// TestAdoptCostIndependentOfSize: joining a family allocates nothing
// beyond amortised slice growth, whether the member carries 4
// instruments or 64, and whether the family is empty or already holds
// 100 000 members.
func TestAdoptCostIndependentOfSize(t *testing.T) {
	mk := func(n int) (*Leaves, []Instrument) {
		names := make([]string, n)
		ins := make([]Instrument, n)
		for i := range names {
			names[i] = fmt.Sprintf("leaf%d", i)
			ins[i] = &Counter{}
		}
		return NewLeaves(names...), ins
	}
	measure := func(prior int, leaves *Leaves, ins []Instrument) float64 {
		reg := New()
		reg.Register("n1/transport/dm/delivered", &Counter{})
		f := NewFamily(reg.Scope("n1/transport"), "conn", eachOf)
		seq := 0
		for ; seq < prior; seq++ {
			f.Join(seq, leaves, ins)
		}
		return testing.AllocsPerRun(2000, func() {
			f.Join(seq, leaves, ins)
			seq++
		})
	}
	smallL, smallI := mk(4)
	bigL, bigI := mk(64)
	base := measure(0, smallL, smallI)
	if got := measure(0, bigL, bigI); got != base {
		t.Errorf("64-instrument member: %v allocs, 4-instrument member: %v", got, base)
	}
	if got := measure(100_000, smallL, smallI); got != base {
		t.Errorf("after 100k members: %v allocs, empty family: %v", got, base)
	}
	if base != 0 {
		t.Errorf("Join allocates %v objects, want 0 (amortised slice growth only)", base)
	}
}

// TestSnapshotAllocsOneNamePerSample: a snapshot of family members
// allocates one name string per sample and a bounded few objects per
// member, not a name buffer per sample. Measured: samples + 2 per
// member (the closure that collects a member's instruments, and the
// slice header it appends through) + 10; the per-connection groups
// families replaced made 4 per member.
func TestSnapshotAllocsOneNamePerSample(t *testing.T) {
	const members = 500
	reg := New()
	f := NewFamily(reg.Scope("n1/transport"), "conn", eachOf)
	ins := make([]Instrument, 30)
	names := make([]string, len(ins))
	for i := range ins {
		ins[i] = &Counter{}
		names[i] = fmt.Sprintf("crossings/leaf_with_a_longish_name%d", i)
	}
	leaves := NewLeaves(names...)
	for seq := 0; seq < members; seq++ {
		f.Join(seq, leaves, ins)
	}
	samples := members * len(ins)
	got := testing.AllocsPerRun(5, func() { reg.Snapshot() })
	if limit := float64(samples + 2*members + 16); got > limit {
		t.Errorf("Snapshot of %d samples in %d members: %v allocs, want <= %v", samples, members, got, limit)
	}
}
