package faults

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
)

// TestApplyRejectsOverlappingPartitionAndFlap is the regression test for
// the silent last-write-wins bug: a flap of link 2-3 scheduled inside a
// partition that also cuts 2-3 used to compose by event order — the
// flap's restore resurrected a link the partition still wanted down.
// Apply must now reject the script whole, scheduling nothing.
func TestApplyRejectsOverlappingPartitionAndFlap(t *testing.T) {
	sim, topo := buildLine(t, 21, 4, netsim.LinkConfig{Delay: time.Millisecond})
	inj := New(sim, topo, 21)
	err := inj.Apply(Script{Name: "clash", Steps: []Step{
		{At: 300 * time.Millisecond, For: 2 * time.Second, Fault: Partition{Nodes: []network.Addr{3, 4}}},
		{At: time.Second, For: 200 * time.Millisecond, Fault: LinkFlap{A: 2, B: 3}},
	}})
	if err == nil {
		t.Fatal("overlapping partition+flap on link 2-3 accepted")
	}
	for _, want := range []string{"step 0", "step 1", "link 2-3", "up/down state"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// Rejection is atomic: nothing was scheduled, the world is untouched.
	sim.RunFor(5 * time.Second)
	if st := inj.Stats(); st["link_cuts"] != 0 || st["partitions"] != 0 {
		t.Errorf("rejected script half-applied: %v", st)
	}
	if d := topo.Links[[2]network.Addr{2, 3}]; !d.AB.Up() || !d.BA.Up() {
		t.Error("link 2-3 went down despite script rejection")
	}
}

func TestCheckConflictsMatrix(t *testing.T) {
	links := LineLinks(4)
	at, f := 300*time.Millisecond, time.Second
	cases := []struct {
		name   string
		script Script
		reject bool
	}{
		{"disjoint-windows-same-link", Script{Steps: []Step{
			{At: at, For: f, Fault: LinkFlap{A: 2, B: 3}},
			{At: at + 2*f, For: f, Fault: LinkFlap{A: 2, B: 3}},
		}}, false},
		{"overlap-same-link-both-orientations", Script{Steps: []Step{
			{At: at, For: f, Fault: LinkFlap{A: 2, B: 3}},
			{At: at + f/2, For: f, Fault: LinkFlap{A: 3, B: 2}},
		}}, true},
		{"overlap-different-links", Script{Steps: []Step{
			{At: at, For: f, Fault: LinkFlap{A: 1, B: 2}},
			{At: at, For: f, Fault: LinkFlap{A: 3, B: 4}},
		}}, false},
		// Different knobs of the same link compose: loss overlay during
		// a flap window is legal.
		{"loss-during-flap-composes", Script{Steps: []Step{
			{At: at, For: f, Fault: LinkFlap{A: 2, B: 3}},
			{At: at, For: f, Fault: BurstyLoss{A: 2, B: 3, GE: GEConfig{LossBad: 0.5}}},
		}}, false},
		{"two-loss-overlays-clash", Script{Steps: []Step{
			{At: at, For: f, Fault: BurstyLoss{A: 2, B: 3, GE: GEConfig{LossBad: 0.5}}},
			{At: at + f/2, For: f, Fault: BurstyLoss{A: 2, B: 3, GE: GEConfig{LossBad: 0.9}}},
		}}, true},
		{"two-reorder-windows-clash", Script{Steps: []Step{
			{At: at, For: f, Fault: Reorder{A: 2, B: 3, Prob: 0.3}},
			{At: at + f/2, For: f, Fault: Reorder{A: 2, B: 3, Prob: 0.6}},
		}}, true},
		// A crash claims every incident link, so a flap of any of them
		// during the outage window clashes.
		{"flap-during-crash-clashes", Script{Steps: []Step{
			{At: at, For: 2 * f, Fault: RouterCrash{Addr: 2}},
			{At: at + f, For: f / 2, Fault: LinkFlap{A: 1, B: 2}},
		}}, true},
		{"blackholes-on-different-routers", Script{Steps: []Step{
			{At: at, For: f, Fault: Blackhole{At: 2}},
			{At: at, For: f, Fault: Blackhole{At: 3}},
		}}, false},
		{"blackholes-on-same-router-clash", Script{Steps: []Step{
			{At: at, For: f, Fault: Blackhole{At: 2}},
			{At: at + f/2, For: f, Fault: Blackhole{At: 2}},
		}}, true},
		// A permanent fault (For=0) holds its claim forever.
		{"permanent-partition-blocks-later-flap", Script{Steps: []Step{
			{At: at, For: 0, Fault: Partition{Nodes: []network.Addr{4}}},
			{At: at + 10*f, For: f, Fault: LinkFlap{A: 3, B: 4}},
		}}, true},
		// RandomLinkFlaps' last flap can stay down past the window by up
		// to MaxDown; the claim covers it.
		{"random-flaps-tail-extends-claim", Script{Steps: []Step{
			{At: at, For: f, Fault: RandomLinkFlaps{A: 2, B: 3, N: 3, MinDown: 50 * time.Millisecond, MaxDown: 400 * time.Millisecond}},
			{At: at + f + 100*time.Millisecond, For: f, Fault: LinkFlap{A: 2, B: 3}},
		}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.script.CheckConflicts(links)
			if tc.reject && err == nil {
				t.Error("conflicting script accepted")
			}
			if !tc.reject && err != nil {
				t.Errorf("legal script rejected: %v", err)
			}
		})
	}
}

func TestValidateCatchesMalformedFaults(t *testing.T) {
	bad := []Script{
		{Name: "neg", Steps: []Step{{At: -time.Second, Fault: LinkFlap{A: 1, B: 2}}}},
		{Name: "nil", Steps: []Step{{At: time.Second, Fault: nil}}},
		{Name: "self-flap", Steps: []Step{{Fault: LinkFlap{A: 2, B: 2}}}},
		{Name: "zero-flaps", Steps: []Step{{Fault: RandomLinkFlaps{A: 1, B: 2, N: 0}}}},
		{Name: "empty-partition", Steps: []Step{{Fault: Partition{}}}},
		{Name: "loss-prob", Steps: []Step{{Fault: BurstyLoss{A: 1, B: 2, GE: GEConfig{LossBad: 1.5}}}}},
		{Name: "reorder-prob", Steps: []Step{{Fault: Reorder{A: 1, B: 2, Prob: -0.1}}}},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("script %q passed Validate", s.Name)
		}
	}
	ok := Script{Name: "fine", Steps: []Step{
		{At: time.Second, For: time.Second, Fault: LinkFlap{A: 1, B: 2}},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("well-formed script rejected: %v", err)
	}
}
