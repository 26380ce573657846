package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Instrument kind tags carried by Sample.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Bucket is one histogram bucket in a Sample. Le is the inclusive
// upper bound; the overflow bucket uses Le == -1.
type Bucket struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

// Sample is one instrument's frozen value. For counters and gauges
// Value is the count/level; for histograms Value is the observation
// count and Sum/Buckets carry the distribution.
type Sample struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   int64    `json:"value"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a frozen, name-sorted capture of a registry. It holds
// only plain data: snapshots from two runs of the same seeded
// simulation marshal to byte-identical JSON.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Get returns the sample with the given name.
func (s Snapshot) Get(name string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Diff returns this snapshot with before's values subtracted, sample
// by matching name. Counters and histogram counts subtract; gauges are
// levels, so the current level passes through. Samples absent from
// before appear unchanged.
func (s Snapshot) Diff(before Snapshot) Snapshot {
	out := Snapshot{Samples: make([]Sample, len(s.Samples))}
	copy(out.Samples, s.Samples)
	for i := range out.Samples {
		cur := &out.Samples[i]
		prev, ok := before.Get(cur.Name)
		if !ok || cur.Kind == KindGauge {
			continue
		}
		cur.Value -= prev.Value
		cur.Sum -= prev.Sum
		cur.Buckets = diffBuckets(cur.Buckets, prev.Buckets)
	}
	return out
}

func diffBuckets(cur, prev []Bucket) []Bucket {
	if len(prev) == 0 {
		return cur
	}
	prevN := make(map[int64]uint64, len(prev))
	for _, b := range prev {
		prevN[b.Le] = b.N
	}
	out := make([]Bucket, 0, len(cur))
	for _, b := range cur {
		b.N -= prevN[b.Le]
		if b.N > 0 {
			out = append(out, b)
		}
	}
	return out
}

// WithPrefix returns the snapshot with every name prefixed by p + "/".
// Experiments use it to merge per-variant registries without
// collisions ("v03/netsim/...", "trial1/dv/...").
func (s Snapshot) WithPrefix(p string) Snapshot {
	out := Snapshot{Samples: make([]Sample, len(s.Samples))}
	copy(out.Samples, s.Samples)
	for i := range out.Samples {
		out.Samples[i].Name = Join(p, out.Samples[i].Name)
	}
	return out
}

// Merge combines snapshots into one, re-sorted by name. Duplicate
// names are kept in input order; callers avoid them with WithPrefix.
func Merge(parts ...Snapshot) Snapshot {
	var out Snapshot
	for _, p := range parts {
		out.Samples = append(out.Samples, p.Samples...)
	}
	sort.SliceStable(out.Samples, func(i, j int) bool {
		return out.Samples[i].Name < out.Samples[j].Name
	})
	return out
}

// Text renders the snapshot as aligned name/value lines. Histograms
// show count, mean and per-bucket counts.
func (s Snapshot) Text() string {
	width := 0
	for _, sm := range s.Samples {
		if len(sm.Name) > width {
			width = len(sm.Name)
		}
	}
	var b strings.Builder
	for _, sm := range s.Samples {
		fmt.Fprintf(&b, "%-*s  %d", width, sm.Name, sm.Value)
		if sm.Kind == KindHistogram {
			mean := int64(0)
			if sm.Value > 0 {
				mean = sm.Sum / sm.Value
			}
			fmt.Fprintf(&b, " (sum=%d mean=%d", sm.Sum, mean)
			for _, bk := range sm.Buckets {
				if bk.Le < 0 {
					fmt.Fprintf(&b, " le=+inf:%d", bk.N)
				} else {
					fmt.Fprintf(&b, " le=%d:%d", bk.Le, bk.N)
				}
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	return b.String()
}
