package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterGaugeZeroValue(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5122 {
		t.Fatalf("count=%d sum=%d, want 5, 5122", h.Count(), h.Sum())
	}
	s := h.sample("h")
	want := []Bucket{{Le: 10, N: 2}, {Le: 100, N: 2}, {Le: -1, N: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestRegistryAdoptionAndSnapshotOrder(t *testing.T) {
	reg := New()
	var sent, lost Counter
	sc := reg.Scope("n1").Sub("link0")
	sc.Register("sent", &sent)
	sc.Register("lost", &lost)
	sent.Add(3) // increments through the original field reach the registry
	snap := reg.Snapshot()
	names := []string{snap.Samples[0].Name, snap.Samples[1].Name}
	if names[0] != "n1/link0/lost" || names[1] != "n1/link0/sent" {
		t.Fatalf("snapshot order = %v, want name-sorted", names)
	}
	if snap.Value("n1/link0/sent") != 3 {
		t.Fatalf("sent = %d, want 3", snap.Value("n1/link0/sent"))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	reg := New()
	var a, b Counter
	reg.Register("x", &a)
	reg.Register("x", &b)
}

func TestNilScopeIsInert(t *testing.T) {
	var sc *Scope
	sc.Sub("a").Register("b", &Counter{}) // must not panic
	c := sc.Counter("detached")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter should still count")
	}
	h := sc.Histogram("h", 1, 2)
	h.Observe(1)
	if h.Count() != 1 {
		t.Fatal("detached histogram should still observe")
	}
}

func TestSnapshotDiff(t *testing.T) {
	reg := New()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", 10, 100)
	c.Add(2)
	g.Set(5)
	h.Observe(3)
	before := reg.Snapshot()
	c.Add(3)
	g.Set(9)
	h.Observe(50)
	d := reg.Snapshot().Diff(before)
	if d.Value("c") != 3 {
		t.Fatalf("counter diff = %d, want 3", d.Value("c"))
	}
	if d.Value("g") != 9 {
		t.Fatalf("gauge diff = %d, want current level 9", d.Value("g"))
	}
	hs, _ := d.Get("h")
	if hs.Value != 1 || hs.Sum != 50 {
		t.Fatalf("hist diff = %+v, want 1 observation of 50", hs)
	}
	if len(hs.Buckets) != 1 || hs.Buckets[0].Le != 100 || hs.Buckets[0].N != 1 {
		t.Fatalf("hist diff buckets = %+v", hs.Buckets)
	}
}

func TestMergeWithPrefix(t *testing.T) {
	a, b := New(), New()
	a.Counter("x").Add(1)
	b.Counter("x").Add(2)
	m := Merge(a.Snapshot().WithPrefix("v0"), b.Snapshot().WithPrefix("v1"))
	if m.Value("v0/x") != 1 || m.Value("v1/x") != 2 {
		t.Fatalf("merged = %+v", m.Samples)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		reg := New()
		// register in different orders; snapshot must sort identically
		reg.Counter("b/two").Add(2)
		reg.Counter("a/one").Add(1)
		return reg.Snapshot()
	}
	if !bytes.Equal(build().JSON(), build().JSON()) {
		t.Fatal("same-content snapshots marshal differently")
	}
	var decoded Snapshot
	if err := json.Unmarshal(build().JSON(), &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
}
