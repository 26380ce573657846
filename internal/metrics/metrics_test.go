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
	if g.v != 4 {
		t.Fatalf("gauge = %d, want 4", g.v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.n != 5 || h.sum != 5122 {
		t.Fatalf("count=%d sum=%d, want 5, 5122", h.n, h.sum)
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
	if sent, _ := snap.Get("n1/link0/sent"); sent.Value != 3 {
		t.Fatalf("sent = %d, want 3", sent.Value)
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
	if h.n != 1 {
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
	if cs, _ := d.Get("c"); cs.Value != 3 {
		t.Fatalf("counter diff = %d, want 3", cs.Value)
	}
	if gs, _ := d.Get("g"); gs.Value != 9 {
		t.Fatalf("gauge diff = %d, want current level 9", gs.Value)
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
	if v0, _ := m.Get("v0/x"); v0.Value != 1 {
		t.Fatalf("merged = %+v", m.Samples)
	}
	if v1, _ := m.Get("v1/x"); v1.Value != 2 {
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
	a, _ := json.Marshal(build())
	b, _ := json.Marshal(build())
	if !bytes.Equal(a, b) {
		t.Fatal("same-content snapshots marshal differently")
	}
	var decoded Snapshot
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
}
