package netsim

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := NewSimulator(1)
	fired := false
	tm := s.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Error("timer not active before firing")
	}
	if !tm.Stop() {
		t.Error("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	s.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSimulator(1)
	var at []Time
	s.Schedule(time.Millisecond, func() {
		at = append(at, s.Now())
		s.Schedule(time.Millisecond, func() { at = append(at, s.Now()) })
	})
	s.Run(0)
	if len(at) != 2 || at[0] != Time(time.Millisecond) || at[1] != Time(2*time.Millisecond) {
		t.Errorf("at = %v", at)
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := NewSimulator(1)
	s.Schedule(time.Millisecond, func() {
		s.ScheduleAt(0, func() {})
	})
	s.Run(0)
	if s.Now() != Time(time.Millisecond) {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := NewSimulator(1)
	ran := 0
	s.Schedule(time.Millisecond, func() { ran++ })
	s.Schedule(5*time.Millisecond, func() { ran++ })
	s.RunFor(2 * time.Millisecond)
	if ran != 1 {
		t.Errorf("ran = %d after 2ms", ran)
	}
	if s.Now() != Time(2*time.Millisecond) {
		t.Errorf("Now = %v", s.Now())
	}
	s.RunFor(10 * time.Millisecond)
	if ran != 2 {
		t.Errorf("ran = %d after 12ms", ran)
	}
}

func TestRunLimit(t *testing.T) {
	s := NewSimulator(1)
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if n := s.Run(3); n != 3 {
		t.Errorf("Run(3) executed %d", n)
	}
	if n := s.Run(0); n != 2 {
		t.Errorf("drain executed %d", n)
	}
}

func TestRepeater(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	r := s.Every(time.Second, func() { count++ })
	s.RunFor(5500 * time.Millisecond)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	r.Stop()
	s.RunFor(5 * time.Second)
	if count != 5 {
		t.Errorf("repeater fired after Stop: %d", count)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int {
		s := NewSimulator(seed)
		var delivered []int
		link := s.NewLink(LinkConfig{
			Delay: time.Millisecond, Jitter: time.Millisecond,
			LossProb: 0.3, DupProb: 0.1, ReorderProb: 0.2,
		}, func(p *Packet) { delivered = append(delivered, int(p.Data[0])) })
		for i := 0; i < 100; i++ {
			link.Send([]byte{byte(i)})
		}
		s.Run(0)
		return delivered
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical impairment pattern (suspicious)")
	}
}

func TestLinkDelay(t *testing.T) {
	s := NewSimulator(1)
	var at Time
	l := s.NewLink(LinkConfig{Delay: 10 * time.Millisecond}, func(p *Packet) { at = s.Now() })
	l.Send([]byte("x"))
	s.Run(0)
	if at != Time(10*time.Millisecond) {
		t.Errorf("delivered at %v", at)
	}
}

func TestLinkSerializationRate(t *testing.T) {
	s := NewSimulator(1)
	var times []Time
	// 8000 bits/sec: a 1000-byte packet takes exactly 1 second.
	l := s.NewLink(LinkConfig{RateBps: 8000}, func(p *Packet) { times = append(times, s.Now()) })
	l.Send(make([]byte, 1000))
	l.Send(make([]byte, 1000))
	s.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != Time(time.Second) || times[1] != Time(2*time.Second) {
		t.Errorf("times = %v", times)
	}
}

func TestLinkQueueDrop(t *testing.T) {
	s := NewSimulator(1)
	n := 0
	l := s.NewLink(LinkConfig{RateBps: 8000, QueueLimit: 2}, func(p *Packet) { n++ })
	for i := 0; i < 10; i++ {
		l.Send(make([]byte, 1000))
	}
	s.Run(0)
	if st := l.Stats(); st["queue_drop"] == 0 {
		t.Error("no queue drops with tiny queue")
	}
	if n >= 10 {
		t.Errorf("all packets delivered despite queue limit: %d", n)
	}
}

func TestLinkECNMarking(t *testing.T) {
	s := NewSimulator(1)
	marked := 0
	l := s.NewLink(LinkConfig{RateBps: 8000, QueueLimit: 100, ECNThreshold: 2},
		func(p *Packet) {
			if p.ECN {
				marked++
			}
		})
	for i := 0; i < 10; i++ {
		l.Send(make([]byte, 1000))
	}
	s.Run(0)
	if marked == 0 {
		t.Error("no ECN marks despite standing queue")
	}
	if st := l.Stats(); st["ecn_marked"] != uint64(marked) {
		t.Errorf("stats.ECNMarked=%d delivered marked=%d", st["ecn_marked"], marked)
	}
}

func TestLinkLossAll(t *testing.T) {
	s := NewSimulator(1)
	n := 0
	l := s.NewLink(LinkConfig{LossProb: 1}, func(p *Packet) { n++ })
	for i := 0; i < 50; i++ {
		l.Send([]byte("x"))
	}
	s.Run(0)
	if n != 0 {
		t.Errorf("delivered %d with loss=1", n)
	}
	if st := l.Stats(); st["lost"] != 50 {
		t.Errorf("Lost = %d", st["lost"])
	}
}

func TestLinkDuplication(t *testing.T) {
	s := NewSimulator(3)
	n := 0
	l := s.NewLink(LinkConfig{DupProb: 1}, func(p *Packet) { n++ })
	for i := 0; i < 20; i++ {
		l.Send([]byte("x"))
	}
	s.Run(0)
	if n != 40 {
		t.Errorf("delivered %d with dup=1, want 40", n)
	}
}

func TestLinkCorruptionFlipsOneBit(t *testing.T) {
	s := NewSimulator(5)
	orig := []byte{0xAA, 0xBB, 0xCC}
	var got []byte
	l := s.NewLink(LinkConfig{CorruptProb: 1}, func(p *Packet) { got = p.Data })
	l.Send(orig)
	s.Run(0)
	diff := 0
	for i := range orig {
		x := orig[i] ^ got[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d bits, want 1", diff)
	}
	if orig[0] != 0xAA {
		t.Error("corruption mutated the caller's buffer")
	}
}

func TestLinkReorderingObserved(t *testing.T) {
	s := NewSimulator(11)
	var order []int
	l := s.NewLink(LinkConfig{Delay: time.Millisecond, ReorderProb: 0.5},
		func(p *Packet) { order = append(order, int(p.Data[0])) })
	for i := 0; i < 50; i++ {
		l.Send([]byte{byte(i)})
	}
	s.Run(0)
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("no reordering observed with reorder=0.5")
	}
}

func TestLinkDown(t *testing.T) {
	s := NewSimulator(1)
	n := 0
	l := s.NewLink(LinkConfig{}, func(p *Packet) { n++ })
	l.SetUp(false)
	l.Send([]byte("x"))
	s.Run(0)
	if n != 0 {
		t.Error("down link delivered")
	}
	l.SetUp(true)
	l.Send([]byte("x"))
	s.Run(0)
	if n != 1 {
		t.Error("restored link did not deliver")
	}
}

func TestLinkDataCopied(t *testing.T) {
	s := NewSimulator(1)
	buf := []byte{1, 2, 3}
	var got []byte
	l := s.NewLink(LinkConfig{Delay: time.Millisecond}, func(p *Packet) { got = p.Data })
	l.Send(buf)
	buf[0] = 99 // mutate after send
	s.Run(0)
	if got[0] != 1 {
		t.Error("link aliased the caller's buffer")
	}
}

func TestDuplexBothDirections(t *testing.T) {
	s := NewSimulator(1)
	var atA, atB []byte
	d := NewDuplexOn(s, LinkConfig{Delay: time.Millisecond},
		func(p *Packet) { atA = p.Data },
		func(p *Packet) { atB = p.Data })
	d.AB.Send([]byte("to-b"))
	d.BA.Send([]byte("to-a"))
	s.Run(0)
	if string(atB) != "to-b" || string(atA) != "to-a" {
		t.Errorf("atA=%q atB=%q", atA, atB)
	}
	d.SetUp(false)
	if d.AB.Up() || d.BA.Up() {
		t.Error("SetUp(false) did not cut both directions")
	}
}

// TestSimulatorAsLinkDestination pins that the sender-to-receiver link
// constructors take a driver handle on either side: a Simulator is the
// one view of its engine and a Sharded engine is its control view, so
// world builders that wire every link through NewDuplexBetween/LinkOn
// work on either unchanged.
func TestSimulatorAsLinkDestination(t *testing.T) {
	for _, b := range []Backend{NewSimulator(1), NewSharded(1, 2, nil)} {
		var atA, atB []byte
		d := NewDuplexBetween(b, b, LinkConfig{Delay: time.Millisecond},
			func(p *Packet) { atA = p.Data },
			func(p *Packet) { atB = p.Data })
		d.AB.Send([]byte("to-b"))
		d.BA.Send([]byte("to-a"))
		LinkOn(b, LinkConfig{}, func(*Packet) {}, nil).Send([]byte("x")) // nil destination backend: plain NewLink
		b.RunFor(time.Second)
		b.Close()
		if string(atB) != "to-b" || string(atA) != "to-a" {
			t.Errorf("%s: atA=%q atB=%q", b.Name(), atA, atB)
		}
		if names := d.AB.Name() + " " + d.BA.Name(); names != "link0 link1" {
			t.Errorf("%s: links named %q, want creation order", b.Name(), names)
		}
	}
}

func TestBusSingleTransmission(t *testing.T) {
	s := NewSimulator(1)
	b := s.NewBus(1_000_000, time.Microsecond)
	var got [3][]byte
	var sts [3]*Station
	for i := 0; i < 3; i++ {
		i := i
		sts[i] = b.Attach(func(p *Packet) { got[i] = p.Data })
	}
	sts[0].Transmit([]byte("hello"))
	s.Run(0)
	if got[0] != nil {
		t.Error("sender received its own frame")
	}
	if string(got[1]) != "hello" || string(got[2]) != "hello" {
		t.Errorf("receivers got %q, %q", got[1], got[2])
	}
}

func TestBusCollision(t *testing.T) {
	s := NewSimulator(1)
	b := s.NewBus(1_000_000, time.Microsecond)
	received := 0
	collided := [2]bool{}
	st0 := b.Attach(func(p *Packet) { received++ })
	st1 := b.Attach(func(p *Packet) { received++ })
	st0.OnCollision = func() { collided[0] = true }
	st1.OnCollision = func() { collided[1] = true }
	// Both transmit at t=0: guaranteed overlap.
	st0.Transmit(make([]byte, 100))
	st1.Transmit(make([]byte, 100))
	s.Run(0)
	if received != 0 {
		t.Errorf("collision delivered %d frames", received)
	}
	if !collided[0] || !collided[1] {
		t.Errorf("collision callbacks = %v", collided)
	}
	if st := b.Stats(); st["collisions"] != 1 {
		t.Errorf("Collisions = %d", st["collisions"])
	}
}

func TestBusCarrierSense(t *testing.T) {
	s := NewSimulator(1)
	b := s.NewBus(8_000, 0) // 1000-byte frame = 1s
	st0 := b.Attach(func(p *Packet) {})
	st1 := b.Attach(func(p *Packet) {})
	st0.Transmit(make([]byte, 1000))
	sensed := false
	s.Schedule(500*time.Millisecond, func() { sensed = st1.Busy() })
	idle := true
	s.Schedule(1500*time.Millisecond, func() { idle = !st1.Busy() })
	s.Run(0)
	if !sensed {
		t.Error("carrier not sensed mid-transmission")
	}
	if !idle {
		t.Error("carrier sensed after transmission ended")
	}
}

func TestBusSequentialNoCollision(t *testing.T) {
	s := NewSimulator(1)
	b := s.NewBus(1_000_000, 0)
	n := 0
	st0 := b.Attach(func(p *Packet) { n++ })
	b.Attach(func(p *Packet) { n++ })
	_ = st0
	st2 := b.Attach(func(p *Packet) { n++ })
	st2.Transmit(make([]byte, 10))
	s.Schedule(time.Second, func() { st2.Transmit(make([]byte, 10)) })
	s.Run(0)
	if st := b.Stats(); st["collisions"] != 0 {
		t.Errorf("Collisions = %d", st["collisions"])
	}
	if n != 4 {
		t.Errorf("delivered %d, want 4", n)
	}
}

func BenchmarkLinkSend(b *testing.B) {
	s := NewSimulator(1)
	l := s.NewLink(LinkConfig{Delay: time.Millisecond, LossProb: 0.01}, func(p *Packet) {})
	data := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Send(data)
		if i%1024 == 1023 {
			s.Run(0)
		}
	}
	s.Run(0)
}

func TestLinkDownMidFlight(t *testing.T) {
	// A packet already in flight when the link is cut must not arrive.
	s := NewSimulator(51)
	n := 0
	l := s.NewLink(LinkConfig{Delay: 10 * time.Millisecond}, func(p *Packet) { n++ })
	l.Send([]byte("doomed"))
	s.Schedule(5*time.Millisecond, func() { l.SetUp(false) })
	s.Run(0)
	if n != 0 {
		t.Error("packet delivered over a cut link")
	}
	if l.Stats()["down_drop"] == 0 {
		t.Error("in-flight down-link drop not counted")
	}
}

func TestLinkDownDropAndSetLossProb(t *testing.T) {
	// Downed-link drops count as down_drop, not lost; SetLossProb
	// retunes random loss at runtime (the fault injector's GE overlay).
	s := NewSimulator(53)
	n := 0
	l := s.NewLink(LinkConfig{}, func(p *Packet) { n++ })
	l.SetUp(false)
	for i := 0; i < 5; i++ {
		l.Send([]byte("x"))
	}
	s.Run(0)
	if st := l.Stats(); st["down_drop"] != 5 || st["lost"] != 0 {
		t.Errorf("down_drop=%d lost=%d, want 5/0", st["down_drop"], st["lost"])
	}
	l.SetUp(true)
	l.SetLossProb(1)
	for i := 0; i < 5; i++ {
		l.Send([]byte("x"))
	}
	s.Run(0)
	if n != 0 {
		t.Errorf("delivered %d with loss=1", n)
	}
	if st := l.Stats(); st["lost"] != 5 {
		t.Errorf("lost=%d after SetLossProb(1), want 5", st["lost"])
	}
	l.SetLossProb(0)
	l.Send([]byte("x"))
	s.Run(0)
	if n != 1 {
		t.Errorf("delivered %d after SetLossProb(0), want 1", n)
	}
}

func TestBusThreeWayCollisionExtendsPeriod(t *testing.T) {
	// A third transmission joining an already-collided period extends
	// it; everyone involved gets exactly one collision callback set.
	s := NewSimulator(52)
	b := s.NewBus(8_000, 0) // 1000B = 1s
	var collided [3]bool
	received := 0
	sts := make([]*Station, 3)
	for i := range sts {
		i := i
		sts[i] = b.Attach(func(p *Packet) { received++ })
		sts[i].OnCollision = func() { collided[i] = true }
	}
	sts[0].Transmit(make([]byte, 1000))
	s.Schedule(200*time.Millisecond, func() { sts[1].Transmit(make([]byte, 1000)) })
	s.Schedule(900*time.Millisecond, func() { sts[2].Transmit(make([]byte, 1000)) })
	s.Run(0)
	if received != 0 {
		t.Errorf("collided frames delivered: %d", received)
	}
	if !collided[0] || !collided[1] || !collided[2] {
		t.Errorf("collision callbacks = %v", collided)
	}
	if st := b.Stats(); st["collisions"] != 1 {
		t.Errorf("Collisions = %d, want 1 (one extended busy period)", st["collisions"])
	}
}

func TestRepeaterStopInsideCallback(t *testing.T) {
	s := NewSimulator(53)
	count := 0
	var r *Repeater
	r = s.Every(time.Second, func() {
		count++
		if count == 2 {
			r.Stop()
		}
	})
	s.RunFor(10 * time.Second)
	if count != 2 {
		t.Errorf("count = %d after self-stop", count)
	}
}

func TestTimerActiveLifecycle(t *testing.T) {
	s := NewSimulator(54)
	tm := s.Schedule(time.Millisecond, func() {})
	if !tm.Active() {
		t.Error("pending timer not active")
	}
	s.Run(0)
	if tm.Active() {
		t.Error("fired timer still active")
	}
	if tm.Stop() {
		t.Error("Stop on fired timer returned true")
	}
	var nilT *Timer
	if nilT.Active() || nilT.Stop() {
		t.Error("nil timer misbehaves")
	}
}

func TestHeapCompaction(t *testing.T) {
	s := NewSimulator(1)
	reg := metrics.New()
	s2 := NewSimulator(1, WithMetrics(reg))
	for _, sim := range []*Simulator{s, s2} {
		var timers []*Timer
		for i := 0; i < 1000; i++ {
			d := time.Duration(i+1) * time.Millisecond
			timers = append(timers, sim.Schedule(d, func() {}))
		}
		// Cancel all but the last 10: tombstones must not linger until
		// their (far-future) deadlines pop them.
		for _, tm := range timers[:990] {
			tm.Stop()
		}
		if p := sim.Pending(); p > 500 {
			t.Errorf("heap holds %d events after cancelling 990/1000; compaction did not run", p)
		}
		sim.Run(0)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Get("netsim/events/cancelled"); v.Value != 990 {
		t.Errorf("netsim/events/cancelled = %d, want 990", v.Value)
	}
	if v, _ := snap.Get("netsim/events/executed"); v.Value != 10 {
		t.Errorf("netsim/events/executed = %d, want 10", v.Value)
	}
}

func TestHeapCompactionPreservesOrdering(t *testing.T) {
	// The same interleaved schedule-and-cancel pattern must fire the
	// surviving events in the same deterministic order whether or not a
	// compaction happens in between.
	run := func(cancelN int) []int {
		sim := NewSimulator(7)
		var got []int
		var victims []*Timer
		for i := 0; i < 200; i++ {
			i := i
			tm := sim.Schedule(time.Duration(200-i)*time.Millisecond, func() { got = append(got, i) })
			if i%2 == 0 {
				victims = append(victims, tm)
			}
		}
		for _, tm := range victims[:cancelN] {
			tm.Stop()
		}
		// Cancel the rest too, after any compaction has happened.
		for _, tm := range victims[cancelN:] {
			tm.Stop()
		}
		sim.Run(0)
		return got
	}
	a, b := run(0), run(90)
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStopAfterCompactionIsNoop(t *testing.T) {
	sim := NewSimulator(1)
	var timers []*Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, sim.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for _, tm := range timers[:80] {
		tm.Stop()
	}
	// Stopping an already-cancelled timer (now evicted from the heap)
	// must report false and not corrupt the tombstone accounting.
	for _, tm := range timers[:80] {
		if tm.Stop() {
			t.Fatal("double Stop reported true")
		}
	}
	n := 0
	for sim.Step() {
		n++
	}
	if n != 20 {
		t.Errorf("executed %d events, want 20", n)
	}
}

// Run executes events until the queue drains or the step limit is hit;
// it returns the number of events executed. A zero limit means no
// limit.
func (s *Simulator) Run(limit int) int {
	n := 0
	for (limit == 0 || n < limit) && s.Step() {
		n++
	}
	return n
}
