package faults

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/network"
)

// Schedule generation: the adversary side of simulator-centric
// compositional testing. GenScript draws a random — but purely
// seed-determined — fault schedule against the harness line topology,
// composed from the whole fault vocabulary (flaps, partitions,
// crash-restarts, blackholes, bursty loss, reordering windows). Every
// generated schedule is conflict-free (CheckConflicts) and healing:
// every fault has a bounded duration and the cumulative down time is
// capped, so a correct transport owes the fuzzer a completed transfer,
// which is what makes "did not complete" a differential signal instead
// of noise.

// The healing envelope every generated schedule stays inside.
const (
	// GenHosts is the line-topology length 1–…–GenHosts the schedules
	// target, with the transfer's end hosts at 1 and GenHosts (the
	// harness default).
	GenHosts = 4
	// genMaxSteps bounds the number of steps (at least 1 is always
	// generated).
	genMaxSteps = 5
	// genMinAt/genMaxAt bound fault start offsets. Faults start after
	// 200ms so the handshake happens on a clean network and every
	// failure hits the data phase — connect-time faults belong to a
	// different oracle — and by 1.5s so they land while a fuzz
	// transfer is still in flight: a fault that fires after the last
	// byte tests nothing.
	genMinAt = 200 * time.Millisecond
	genMaxAt = 1500 * time.Millisecond
	// genMaxFor bounds a single fault's duration, safely under the
	// transports' user-timeout budget.
	genMaxFor = 2500 * time.Millisecond
	// genMaxDownTotal caps the summed duration of connectivity-cutting
	// faults across the schedule, so chained outages on different links
	// cannot starve the transfer into a legitimate user-timeout abort.
	genMaxDownTotal = 4 * time.Second
)

// genKinds is the fault vocabulary with draw weights: link-level
// faults are common, whole-router faults rarer (as in real networks).
var genKinds = []struct {
	kind   string
	weight int
}{
	{"flap", 4},
	{"flaps", 3},
	{"partition", 3},
	{"pause", 1},
	{"crash", 2},
	{"blackhole", 2},
	{"bursty", 4},
	{"reorder", 3},
}

func drawKind(rng *rand.Rand) string {
	total := 0
	for _, k := range genKinds {
		total += k.weight
	}
	n := rng.Intn(total)
	for _, k := range genKinds {
		n -= k.weight
		if n < 0 {
			return k.kind
		}
	}
	return genKinds[0].kind
}

// between draws uniformly in [lo, hi].
func between(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
}

// GenScript generates one conflict-free healing fault schedule. The
// result is a pure function of the RNG state: the fuzzer derives the
// RNG from a case seed, so a reproducer is just that seed.
func GenScript(rng *rand.Rand) Script {
	links := LineLinks(GenHosts)
	want := 1 + rng.Intn(genMaxSteps)
	s := Script{Name: "gen"}
	var downTotal time.Duration
	// Each slot gets a bounded number of attempts: a candidate that
	// conflicts with the accepted prefix or blows the down budget is
	// discarded and redrawn, so dense schedules stay conflict-free.
	for len(s.Steps) < want {
		accepted := false
		for try := 0; try < 8 && !accepted; try++ {
			st, down := genStep(rng)
			if down > 0 && downTotal+down > genMaxDownTotal {
				continue
			}
			cand := Script{Name: s.Name, Steps: append(append([]Step(nil), s.Steps...), st)}
			if cand.CheckConflicts(links) != nil {
				continue
			}
			s = cand
			downTotal += down
			accepted = true
		}
		if !accepted {
			break // topology saturated; a shorter schedule is fine
		}
	}
	// Present steps in time order: generation order carries no meaning
	// and sorted schedules diff cleanly across shrink rounds.
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s
}

// genStep draws one candidate step and reports how much connectivity
// down time it contributes to the schedule budget.
func genStep(rng *rand.Rand) (Step, time.Duration) {
	link := func() (network.Addr, network.Addr) {
		i := 1 + rng.Intn(GenHosts-1)
		return network.Addr(i), network.Addr(i + 1)
	}
	interior := func() network.Addr { return network.Addr(2 + rng.Intn(GenHosts-2)) }
	at := between(rng, genMinAt, genMaxAt)
	switch drawKind(rng) {
	case "flap":
		a, b := link()
		f := between(rng, 100*time.Millisecond, genMaxFor)
		return Step{At: at, For: f, Fault: LinkFlap{A: a, B: b}}, f
	case "flaps":
		a, b := link()
		f := between(rng, 500*time.Millisecond, genMaxFor)
		n := 2 + rng.Intn(4)
		maxDown := between(rng, 100*time.Millisecond, 400*time.Millisecond)
		return Step{At: at, For: f, Fault: RandomLinkFlaps{
			A: a, B: b, N: n, MinDown: 50 * time.Millisecond, MaxDown: maxDown,
		}}, time.Duration(n) * maxDown
	case "partition":
		// A contiguous end segment of the line: the only cuts that
		// actually separate the two hosts.
		k := 2 + rng.Intn(GenHosts-2)
		var nodes []network.Addr
		if rng.Intn(2) == 0 {
			for i := k; i <= GenHosts; i++ {
				nodes = append(nodes, network.Addr(i))
			}
		} else {
			for i := 1; i <= k; i++ {
				nodes = append(nodes, network.Addr(i))
			}
		}
		f := between(rng, 500*time.Millisecond, genMaxFor)
		return Step{At: at, For: f, Fault: Partition{Nodes: nodes}}, f
	case "pause":
		f := between(rng, 200*time.Millisecond, 1500*time.Millisecond)
		return Step{At: at, For: f, Fault: RouterPause{Addr: interior()}}, f
	case "crash":
		f := between(rng, 500*time.Millisecond, 2*time.Second)
		return Step{At: at, For: f, Fault: RouterCrash{Addr: interior()}}, f
	case "blackhole":
		f := between(rng, 200*time.Millisecond, 2*time.Second)
		return Step{At: at, For: f, Fault: Blackhole{At: interior()}}, f
	case "bursty":
		a, b := link()
		f := between(rng, time.Second, genMaxFor+2*time.Second)
		return Step{At: at, For: f, Fault: BurstyLoss{A: a, B: b, GE: GEConfig{
			MeanGood: between(rng, 200*time.Millisecond, 500*time.Millisecond),
			MeanBad:  between(rng, 30*time.Millisecond, 80*time.Millisecond),
			LossBad:  0.2 + rng.Float64()*0.3,
		}}}, 0
	default: // reorder
		a, b := link()
		f := between(rng, 500*time.Millisecond, genMaxFor)
		return Step{At: at, For: f, Fault: Reorder{A: a, B: b, Prob: 0.1 + rng.Float64()*0.5}}, 0
	}
}
