package faults

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/network"
)

// Conflict detection.
//
// Before this existed, a script that scheduled two faults against the
// same link at overlapping times silently composed them last-write-wins:
// a flap's restore could resurrect a link the partition still wanted
// down, and a second Gilbert–Elliott overlay stomped the first one's
// "restore the original loss probability" bookkeeping. Both produce a
// failure history that depends on event-queue tie-breaking rather than
// on the script — exactly what a deterministic fuzzer cannot tolerate.
// Apply therefore rejects such scripts up front with an error naming
// the two steps and the shared resource.
//
// Conflicts are tracked per (resource, class): two steps conflict iff
// they claim the same class on the same resource over overlapping time
// windows. The classes are independent knobs — a bursty-loss overlay
// during a link flap composes fine (loss fate vs. admin state)
// and is allowed.

// claimClass identifies which knob of a resource a fault writes.
type claimClass int

const (
	// claimDown: the fault drives the link's administrative up/down
	// state (flaps, partitions, router pause/crash outages).
	claimDown claimClass = iota
	// claimLoss: the fault decides the link's loss fate
	// (Gilbert–Elliott overlays).
	claimLoss
	// claimReorder: the fault decides the link's reorder fate.
	claimReorder
	// claimFilter: the fault installs a router's data-plane drop filter
	// (blackholes). Resource is a node, not a link.
	claimFilter
)

func (c claimClass) String() string {
	switch c {
	case claimDown:
		return "up/down state"
	case claimLoss:
		return "loss probability"
	case claimReorder:
		return "reorder probability"
	default:
		return "drop filter"
	}
}

// claim is one step's hold on one resource over a time window.
// to < 0 means the hold is permanent (For == 0 faults never heal).
type claim struct {
	class    claimClass
	link     [2]network.Addr // normalized a<b; valid unless class == claimFilter
	node     network.Addr    // valid only for claimFilter
	from, to time.Duration
	step     int // index into Script.Steps
}

func (c claim) resource() string {
	if c.class == claimFilter {
		return fmt.Sprintf("router n%d", c.node)
	}
	return fmt.Sprintf("link %d-%d", c.link[0], c.link[1])
}

// overlaps reports whether two half-open windows intersect; a negative
// end means "forever".
func (c claim) overlaps(o claim) bool {
	if c.to >= 0 && c.to <= o.from {
		return false
	}
	if o.to >= 0 && o.to <= c.from {
		return false
	}
	return true
}

// normLink orders a link key so both orientations compare equal.
func normLink(a, b network.Addr) [2]network.Addr {
	if b < a {
		a, b = b, a
	}
	return [2]network.Addr{a, b}
}

// LineLinks returns the link set of the harness's 1–…–n line topology,
// the shape BuildWorld constructs. Schedule generators use it to run
// the same conflict check Apply will, before a topology exists.
func LineLinks(n int) [][2]network.Addr {
	links := make([][2]network.Addr, 0, n-1)
	for i := 1; i < n; i++ {
		links = append(links, [2]network.Addr{network.Addr(i), network.Addr(i + 1)})
	}
	return links
}

// window converts a step's At/For into a claim window. For == 0 means
// permanent for every fault kind except the windowed random ones, whose
// apply clamps their randomness inside [At, At+For) anyway.
func window(at, dur time.Duration) (from, to time.Duration) {
	if dur <= 0 {
		return at, -1
	}
	return at, at + dur
}

// claimsOf expands one step into the resources it writes, given the
// topology's link set (normalized). Links the fault names but the
// topology lacks claim nothing — apply is a no-op there too.
func claimsOf(idx int, st Step, links map[[2]network.Addr]bool) []claim {
	from, to := window(st.At, st.For)
	one := func(class claimClass, a, b network.Addr) []claim {
		l := normLink(a, b)
		if !links[l] {
			return nil
		}
		return []claim{{class: class, link: l, from: from, to: to, step: idx}}
	}
	switch f := st.Fault.(type) {
	case LinkFlap:
		return one(claimDown, f.A, f.B)
	case RandomLinkFlaps:
		// The flap window is [At, At+For) but the last flap's down time
		// can extend past it; the claim covers the worst case.
		c := one(claimDown, f.A, f.B)
		for i := range c {
			if c[i].to >= 0 {
				c[i].to += f.MaxDown
			}
		}
		return c
	case Partition:
		in := make(map[network.Addr]bool, len(f.Nodes))
		for _, n := range f.Nodes {
			in[n] = true
		}
		var out []claim
		for l := range links {
			if in[l[0]] != in[l[1]] {
				out = append(out, claim{class: claimDown, link: l, from: from, to: to, step: idx})
			}
		}
		return out
	case RouterPause:
		return incidentClaims(idx, f.Addr, from, to, links)
	case RouterCrash:
		return incidentClaims(idx, f.Addr, from, to, links)
	case Blackhole:
		return []claim{{class: claimFilter, node: f.At, from: from, to: to, step: idx}}
	case BurstyLoss:
		return one(claimLoss, f.A, f.B)
	case Reorder:
		return one(claimReorder, f.A, f.B)
	default:
		return nil
	}
}

// incidentClaims claims the down state of every link touching addr.
func incidentClaims(idx int, addr network.Addr, from, to time.Duration, links map[[2]network.Addr]bool) []claim {
	var out []claim
	for l := range links {
		if l[0] == addr || l[1] == addr {
			out = append(out, claim{class: claimDown, link: l, from: from, to: to, step: idx})
		}
	}
	return out
}

// CheckConflicts rejects scripts in which two steps write the same
// knob of the same link (or router) over overlapping time windows —
// the schedules whose outcome would depend on event ordering instead
// of the script. links is the topology's link set in either key
// orientation; LineLinks builds it for the harness line topology.
func (s Script) CheckConflicts(links [][2]network.Addr) error {
	set := make(map[[2]network.Addr]bool, len(links))
	for _, l := range links {
		set[normLink(l[0], l[1])] = true
	}
	var all []claim
	for i, st := range s.Steps {
		all = append(all, claimsOf(i, st, set)...)
	}
	// Deterministic pair order regardless of map iteration above.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.step != b.step {
			return a.step < b.step
		}
		if a.class != b.class {
			return a.class < b.class
		}
		if a.link != b.link {
			return a.link[0] < b.link[0] || (a.link[0] == b.link[0] && a.link[1] < b.link[1])
		}
		return a.node < b.node
	})
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.step == b.step || a.class != b.class {
				continue
			}
			if a.class == claimFilter {
				if a.node != b.node {
					continue
				}
			} else if a.link != b.link {
				continue
			}
			if a.overlaps(b) {
				return fmt.Errorf("faults: script %q: step %d (%s @%v/%v) and step %d (%s @%v/%v) both drive the %s of %s over overlapping windows",
					s.Name,
					a.step, s.Steps[a.step].Fault, s.Steps[a.step].At, s.Steps[a.step].For,
					b.step, s.Steps[b.step].Fault, s.Steps[b.step].At, s.Steps[b.step].For,
					a.class, a.resource())
			}
		}
	}
	return nil
}
