package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/network"
)

// Script is a declarative fault schedule: a named list of timed steps.
// Scripts are the unit the chaos-soak experiment (E10) iterates over —
// one script describes one failure history, and the same script against
// the same seeds replays identically.
type Script struct {
	Name  string
	Steps []Step
}

// Step schedules one fault. At is the virtual-time offset (from Apply)
// at which the fault begins; For is how long it lasts, with 0 meaning
// permanent (never healed). For randomized faults (RandomLinkFlaps,
// BurstyLoss) the window [At, At+For) bounds the randomness instead.
type Step struct {
	At    time.Duration
	For   time.Duration
	Fault Fault
}

// Fault is one kind of injectable failure. Implementations are the
// vocabulary of the script format; String renders the fault for tables
// and logs.
type Fault interface {
	apply(inj *Injector, at, dur time.Duration)
	String() string
}

// Apply validates the script — structural checks plus conflict
// detection against the injector's topology — and installs every step
// on the simulator. Call before (or during) the run; each step becomes
// ordinary events. A script two of whose steps drive the same knob of
// the same link over overlapping windows is rejected whole: nothing is
// scheduled, so a rejected script never half-applies.
func (inj *Injector) Apply(s Script) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := s.CheckConflicts(inj.sortedLinkKeys()); err != nil {
		return err
	}
	for _, st := range s.Steps {
		st.Fault.apply(inj, st.At, st.For)
	}
	return nil
}

// MustApply is Apply for statically known-good scripts (the E10/E12
// matrices, workload configs): a validation failure there is a wiring
// bug, so it panics instead of returning the error.
func (inj *Injector) MustApply(s Script) {
	if err := inj.Apply(s); err != nil {
		panic(err)
	}
}

// Validate runs the topology-free structural checks: every step names
// a well-formed fault with sane times. Apply calls it (plus the
// topology-aware conflict check); deserialized reproducers should call
// it before trusting a file.
func (s Script) Validate() error {
	for i, st := range s.Steps {
		if st.At < 0 || st.For < 0 {
			return fmt.Errorf("faults: script %q step %d: negative time (at=%v for=%v)", s.Name, i, st.At, st.For)
		}
		if st.Fault == nil {
			return fmt.Errorf("faults: script %q step %d: nil fault", s.Name, i)
		}
		if err := validateFault(st.Fault); err != nil {
			return fmt.Errorf("faults: script %q step %d (%s): %w", s.Name, i, st.Fault, err)
		}
	}
	return nil
}

func validateFault(f Fault) error {
	switch f := f.(type) {
	case LinkFlap:
		if f.A == f.B {
			return fmt.Errorf("flap endpoints are the same node")
		}
	case RandomLinkFlaps:
		if f.A == f.B {
			return fmt.Errorf("flap endpoints are the same node")
		}
		if f.N <= 0 {
			return fmt.Errorf("flap count %d, want > 0", f.N)
		}
		if f.MinDown < 0 || f.MaxDown < 0 {
			return fmt.Errorf("negative down time")
		}
	case Partition:
		if len(f.Nodes) == 0 {
			return fmt.Errorf("empty node set")
		}
	case BurstyLoss:
		if f.A == f.B {
			return fmt.Errorf("loss endpoints are the same node")
		}
		if bad := func(p float64) bool { return p < 0 || p > 1 }; bad(f.GE.LossGood) || bad(f.GE.LossBad) {
			return fmt.Errorf("loss probability outside [0,1]")
		}
	case Reorder:
		if f.A == f.B {
			return fmt.Errorf("reorder endpoints are the same node")
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("reorder probability %v outside [0,1]", f.Prob)
		}
	}
	return nil
}

// String renders the script as "name{fault@at/for, ...}".
func (s Script) String() string {
	parts := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		parts[i] = fmt.Sprintf("%s@%v/%v", st.Fault, st.At, st.For)
	}
	return s.Name + "{" + strings.Join(parts, ", ") + "}"
}

// LinkFlap cuts the A–B link for the step's duration.
type LinkFlap struct{ A, B network.Addr }

func (f LinkFlap) apply(inj *Injector, at, dur time.Duration) {
	inj.FlapLink(at, dur, f.A, f.B)
}
func (f LinkFlap) String() string { return fmt.Sprintf("flap %d-%d", f.A, f.B) }

// RandomLinkFlaps flaps the A–B link N times at seed-determined moments
// within the step's window, each down for a seed-determined duration in
// [MinDown, MaxDown].
type RandomLinkFlaps struct {
	A, B             network.Addr
	N                int
	MinDown, MaxDown time.Duration
}

func (f RandomLinkFlaps) apply(inj *Injector, at, dur time.Duration) {
	inj.randomFlaps(f.A, f.B, at, dur, f.N, f.MinDown, f.MaxDown)
}
func (f RandomLinkFlaps) String() string {
	return fmt.Sprintf("flaps×%d %d-%d", f.N, f.A, f.B)
}

// Partition cuts every link with exactly one endpoint in Nodes,
// isolating the set from the rest of the topology for the step's
// duration.
type Partition struct{ Nodes []network.Addr }

func (f Partition) apply(inj *Injector, at, dur time.Duration) {
	inj.partition(at, dur, f.Nodes)
}
func (f Partition) String() string {
	ns := append([]network.Addr(nil), f.Nodes...)
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return "partition {" + strings.Join(parts, ",") + "}"
}

// RouterPause takes the router off the network (all incident links
// down) for the step's duration, keeping its routing state — a
// maintenance pause or transient isolation.
type RouterPause struct{ Addr network.Addr }

func (f RouterPause) apply(inj *Injector, at, dur time.Duration) {
	inj.outage(at, dur, f.Addr, nil)
}
func (f RouterPause) String() string { return fmt.Sprintf("pause n%d", f.Addr) }

// RouterCrash takes the router off the network and restarts it with a
// brand-new route computer from freshComputer — all routing state
// lost, so the control plane must reconverge from scratch (neighbors
// re-discovered, routes re-advertised).
type RouterCrash struct{ Addr network.Addr }

func (f RouterCrash) apply(inj *Injector, at, dur time.Duration) {
	inj.outage(at, dur, f.Addr, freshComputer)
}

// freshComputer builds the route computer a crashed router restarts
// with: the harness's distance-vector algorithm with empty state.
func freshComputer() network.RouteComputer {
	return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
}
func (f RouterCrash) String() string { return fmt.Sprintf("crash n%d", f.Addr) }

// Blackhole makes the router at At silently discard every data
// datagram for the step's duration, while control traffic flows and
// routing stays converged — the classic misconfigured-middlebox
// failure.
type Blackhole struct{ At network.Addr }

func (f Blackhole) apply(inj *Injector, at, dur time.Duration) {
	inj.blackhole(at, dur, f.At)
}
func (f Blackhole) String() string { return fmt.Sprintf("blackhole n%d", f.At) }

// BurstyLoss overlays the Gilbert–Elliott model on the A–B link's loss
// decision for the step's window; after it, the link's own config
// decides again.
type BurstyLoss struct {
	A, B network.Addr
	GE   GEConfig
}

func (f BurstyLoss) apply(inj *Injector, at, dur time.Duration) {
	inj.burstyLoss(f.A, f.B, at, dur, f.GE)
}
func (f BurstyLoss) String() string { return fmt.Sprintf("bursty %d-%d", f.A, f.B) }

// Reorder opens a reordering window on the A–B link: for the step's
// duration each packet is independently delayed with probability Prob
// so later packets can overtake it; after it, the link's own config
// decides again. Default Prob (0) means 0.5.
type Reorder struct {
	A, B network.Addr
	Prob float64
}

func (f Reorder) apply(inj *Injector, at, dur time.Duration) {
	p := f.Prob
	if p == 0 {
		p = 0.5
	}
	inj.open(f.A, f.B, &overlay{p: p}, at, dur, inj.m.reorderWins.Inc)
}
func (f Reorder) String() string { return fmt.Sprintf("reorder %d-%d", f.A, f.B) }
