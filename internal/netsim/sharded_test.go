package netsim

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestShardedScheduleOrdering holds the engine's driver surface — its
// control view — to the sequential simulator's: the same script of
// driver-context Schedule, Every, nested schedules and cancellations
// fires at the same virtual times, in the same order, with the same
// netsim/events/* counters, on NewSharded(seed, 4) as on NewSimulator.
func TestShardedScheduleOrdering(t *testing.T) {
	script := func(b Backend) []string {
		var got []string
		rec := func(s string) { got = append(got, fmt.Sprintf("%s@%v", s, b.Now())) }
		b.Schedule(3*time.Millisecond, func() { rec("3") })
		b.Schedule(1*time.Millisecond, func() {
			rec("1")
			b.Schedule(0, func() { rec("1+0") })
		})
		b.Schedule(2*time.Millisecond, func() { rec("2") })
		b.Schedule(2*time.Millisecond, func() { rec("2b") })
		b.Schedule(5*time.Millisecond, func() { rec("cancelled") }).Stop()
		n := 0
		var r *Repeater
		r = b.Every(2*time.Millisecond, func() {
			n++
			rec(fmt.Sprintf("every%d", n))
			if n == 3 {
				r.Stop()
			}
		})
		b.RunFor(10 * time.Millisecond)
		rec("end")
		return got
	}
	counters := func(reg *metrics.Registry) []uint64 {
		var out []uint64
		for _, n := range []string{"scheduled", "executed", "cancelled"} {
			out = append(out, counterValue(t, reg, "netsim/events/"+n))
		}
		return out
	}

	simReg, shReg := metrics.New(), metrics.New()
	want := script(NewSimulator(1, WithMetrics(simReg)))
	e := NewSharded(1, 4, shReg)
	defer e.Close()
	got := script(e)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sharded driver schedule:\n got  %v\n want %v", got, want)
	}
	if want[0] != "1@1ms" || want[len(want)-1] != "end@10ms" {
		t.Errorf("sequential schedule = %v", want)
	}
	if g, w := counters(shReg), counters(simReg); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("sharded events scheduled/executed/cancelled = %v, sequential = %v", g, w)
	}
}

// TestShardedCrossShardDelivery pushes packets across a cut link in
// both directions and checks they arrive intact, in order and at the
// right virtual times.
func TestShardedCrossShardDelivery(t *testing.T) {
	e := NewSharded(7, 2, nil)
	defer e.Close()
	a := e.NodeView(0)
	b := e.NodeView(1)
	var gotB []string
	var atB []Time
	lab := LinkOn(a, LinkConfig{Delay: 5 * time.Millisecond}, func(p *Packet) {
		gotB = append(gotB, string(p.Data))
		atB = append(atB, b.Now())
	}, b)
	a.Schedule(time.Millisecond, func() { lab.Send([]byte("one")) })
	a.Schedule(2*time.Millisecond, func() { lab.Send([]byte("two")) })
	e.RunFor(time.Second)
	if len(gotB) != 2 || gotB[0] != "one" || gotB[1] != "two" {
		t.Fatalf("delivered = %v", gotB)
	}
	if atB[0] != Time(6*time.Millisecond) || atB[1] != Time(7*time.Millisecond) {
		t.Errorf("arrival times = %v, want [6ms 7ms]", atB)
	}
}

// TestShardedLaneDeliveriesMatchSim sends steady traffic from two nodes
// into a third over rate-limited links, one of them reordering,
// duplicating and jittered by more than its send spacing, and requires
// the receiver to see the same deliveries at the same times in the same
// order on the sharded engine as on the sequential simulator, with its
// clock never running back. Cross-shard deliveries reach their link's
// delivery lane through the barrier flush, local ones straight from the
// send, and the impaired link's out-of-order and oob packets fall back
// to the heap; the engine must file both into one order. The send
// periods are coprime with each other and with the receiver's own
// timer, so rank — which differs between the engines — never decides.
func TestShardedLaneDeliveriesMatchSim(t *testing.T) {
	clean := LinkConfig{Delay: time.Millisecond, RateBps: 50_000_000}
	noisy := clean
	noisy.Delay = 1300 * time.Microsecond
	noisy.Jitter, noisy.ReorderProb, noisy.DupProb = 200*time.Microsecond, 0.05, 0.05
	run := func(b Backend, node func(i int) Backend, mid func()) []string {
		defer b.Close()
		a, c, r := node(0), node(1), node(2)
		var (
			got  []string
			last Time
		)
		record := func(s string) {
			if now := r.Now(); now < last {
				t.Fatalf("%s ran at %v, after an event at %v", s, now, last)
			} else {
				last = now
			}
			got = append(got, fmt.Sprintf("%s@%v", s, r.Now()))
		}
		recv := func(from string) Handler {
			return func(p *Packet) { record(from + string(p.Data)) }
		}
		links := []Port{LinkOn(a, clean, recv("a"), r), LinkOn(c, noisy, recv("c"), r)}
		for i, src := range []Backend{a, c} {
			i, src, n := i, src, 0
			src.Every(time.Duration(97-8*i)*time.Microsecond, func() {
				n++
				links[i].Send([]byte(fmt.Sprint(n)))
			})
		}
		r.Every(1013*time.Microsecond, func() { record("tick") })
		b.RunFor(10 * time.Millisecond)
		mid()
		b.RunFor(40 * time.Millisecond)
		return got
	}
	s := NewSimulator(5)
	want := run(s, func(int) Backend { return s }, func() {})
	for _, shards := range []int{1, 2, 3} {
		e := NewSharded(5, shards, nil)
		views := make([]Backend, 3)
		for i := range views {
			views[i] = e.NodeView(i * shards / 3)
		}
		got := run(e, func(i int) Backend { return views[i] }, func() {
			// The receiver's core holds lane members mid-run: the lanes
			// are in use, not bypassed.
			if c := e.cores[shards-1]; c.behind == 0 {
				t.Errorf("shards=%d: no deliveries waiting in lanes on the receiving core", shards)
			}
		})
		if len(want) < 500 {
			t.Fatalf("sequential transcript has only %d records", len(want))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("shards=%d: transcript diverges at %d of %d/%d", shards, i, len(got), len(want))
				}
			}
			t.Fatalf("shards=%d: transcript has %d extra records", shards, len(got)-len(want))
		}
	}
}

// TestShardedZeroDelayCutLinkPanics pins the lookahead precondition: a
// cross-shard link with no propagation delay has zero lookahead and
// must be rejected at wiring time, not discovered as divergence.
func TestShardedZeroDelayCutLinkPanics(t *testing.T) {
	e := NewSharded(1, 2, nil)
	defer e.Close()
	a, b := e.NodeView(0), e.NodeView(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-delay cross-shard link did not panic")
		}
	}()
	LinkOn(a, LinkConfig{}, func(*Packet) {}, b)
}

// TestShardedTornLookahead pins the mailbox horizon invariant: a
// cross-shard delivery can never be scheduled before virtual time its
// destination shard has already executed past. The scenario forces the
// tightest case — a send at the very end of a window whose delivery
// lands exactly one lookahead later — and the engine's flush assertion
// (which panics on violation) is the oracle.
func TestShardedTornLookahead(t *testing.T) {
	e := NewSharded(3, 2, nil)
	defer e.Close()
	a, b := e.NodeView(0), e.NodeView(1)
	const look = 2 * time.Millisecond
	var arrivals []Time
	lab := LinkOn(a, LinkConfig{Delay: look}, func(p *Packet) {
		arrivals = append(arrivals, b.Now())
	}, b)
	// Dense busywork on shard B so its local clock presses against the
	// window horizon while A keeps sending.
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 10000 {
			b.Schedule(100*time.Microsecond, tick)
		}
	}
	b.Schedule(0, tick)
	var sends int
	var send func()
	send = func() {
		lab.Send([]byte{byte(sends)})
		sends++
		if sends < 500 {
			a.Schedule(137*time.Microsecond, send)
		}
	}
	a.Schedule(0, send)
	e.RunFor(time.Second)
	if len(arrivals) != 500 {
		t.Fatalf("arrived %d, want 500", len(arrivals))
	}
	// Beyond not panicking: every arrival honors the lookahead contract
	// arrive ≥ send + delay, with sends every 137µs from t=0.
	for i, at := range arrivals {
		if min := Time(i)*Time(137*time.Microsecond) + Time(look); at < min {
			t.Fatalf("arrival %d at %v, before lookahead floor %v", i, at, min)
		}
	}
}

// TestShardedCancelledAndPendingShardAware is the regression test for
// the shard-aware bookkeeping bugfix: timers scheduled and stopped on
// different shards must aggregate into the same events/cancelled
// counter value and Pending() count the sequential simulator reports
// for the identical schedule, with the per-shard parts summing to the
// whole.
func TestShardedCancelledAndPendingShardAware(t *testing.T) {
	build := func(mk func() (Backend, func() uint64, func() int)) (uint64, int) {
		b, cancelled, pending := mk()
		defer b.Close()
		views := []Backend{b}
		if sh, ok := b.(Sharder); ok {
			views = nil
			for i := 0; i < sh.Shards(); i++ {
				views = append(views, sh.NodeView(i))
			}
		}
		var timers []*Timer
		for i := 0; i < 40; i++ {
			v := views[i%len(views)]
			timers = append(timers, v.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
		}
		for i, tm := range timers {
			if i%3 == 0 {
				tm.Stop()
			}
		}
		return cancelled(), pending()
	}

	reg1 := metrics.New()
	seqCancelled, seqPending := build(func() (Backend, func() uint64, func() int) {
		s := NewSimulator(9, WithMetrics(reg1))
		return s, func() uint64 {
			return counterValue(t, reg1, "netsim/events/cancelled")
		}, s.Pending
	})

	reg2 := metrics.New()
	shCancelled, shPending := build(func() (Backend, func() uint64, func() int) {
		e := NewSharded(9, 4, reg2)
		return e, func() uint64 {
			return counterValue(t, reg2, "netsim/events/cancelled")
		}, e.Pending
	})

	if seqCancelled == 0 {
		t.Fatal("sequential run cancelled nothing; test is vacuous")
	}
	if shCancelled != seqCancelled {
		t.Errorf("sharded cancelled = %d, sequential = %d", shCancelled, seqCancelled)
	}
	if shPending != seqPending {
		t.Errorf("sharded Pending = %d, sequential = %d", shPending, seqPending)
	}
}

// counterValue reads one counter out of a registry snapshot by name.
func counterValue(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	for _, s := range reg.Snapshot().Samples {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	t.Fatalf("counter %q not registered", name)
	return 0
}

// TestShardedDeterministicMergeAcrossShardCounts runs the same
// six-node exchange at every shard count from 1 to 6 and requires the
// exact same global execution transcript — the deterministic merge
// rule (at, schedAt, rank, seq) in isolation, without the transport
// stacks on top.
func TestShardedDeterministicMergeAcrossShardCounts(t *testing.T) {
	const nodes = 6
	run := func(shards int) []string {
		e := NewSharded(21, shards, nil)
		defer e.Close()
		views := make([]Backend, nodes)
		for i := range views {
			views[i] = e.NodeView(i * shards / nodes)
		}
		var mu sync.Mutex
		var transcript []string
		record := func(s string) {
			mu.Lock()
			transcript = append(transcript, s)
			mu.Unlock()
		}
		// Full mesh of cut links, then periodic chatter: every node
		// pings its right neighbor, replies bounce back.
		links := make([][]Port, nodes)
		for i := range links {
			links[i] = make([]Port, nodes)
			for j := range links[i] {
				if i == j {
					continue
				}
				i, j := i, j
				links[i][j] = LinkOn(views[i], LinkConfig{Delay: time.Duration(1+(i+j)%3) * time.Millisecond},
					func(p *Packet) {
						record(fmt.Sprintf("%d<-%s@%d", j, p.Data, views[j].Now()))
					}, views[j])
			}
		}
		for i := 0; i < nodes; i++ {
			i := i
			n := 0
			views[i].Every(time.Duration(500+i*137)*time.Microsecond, func() {
				n++
				target := (i + n) % nodes
				if target == i {
					target = (target + 1) % nodes
				}
				links[i][target].Send([]byte(fmt.Sprintf("m%d.%d", i, n)))
			})
		}
		e.RunFor(50 * time.Millisecond)
		// The transcript's sort key is embedded in each record; shard
		// interleaving may reorder appends of concurrent records, so
		// compare as a multiset.
		sort.Strings(transcript)
		return transcript
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("empty transcript")
	}
	for shards := 2; shards <= nodes; shards++ {
		got := run(shards)
		if len(got) != len(base) {
			t.Fatalf("shards=%d: %d records, shards=1: %d", shards, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("shards=%d: transcript diverges at %d: %q vs %q", shards, i, got[i], base[i])
			}
		}
	}
}
