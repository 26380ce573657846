package netsim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
)

// refEvent is one schedule call as the reference store remembers it.
type refEvent struct {
	at, schedAt Time
	rank        int32
	seq         uint64
	id          int
	release     int  // link index + 1 for a serializer release, else 0
	dead        bool // stopped, or already executed
}

func (e *refEvent) before(at, schedAt Time, rank int32, seq uint64) bool {
	if e.at != at {
		return e.at < at
	}
	if e.schedAt != schedAt {
		return e.schedAt < schedAt
	}
	if e.rank != rank {
		return e.rank < rank
	}
	return e.seq < seq
}

// modelLinks is how many links the model posts link events on: two per
// view, so each rank has a pair of delivery and release lanes.
const modelLinks = 4

// releaseMark stands for one serializer release of link i in an
// execution order. A release runs no callback, so the model sees it
// only as the link's release count, read before each callback and after
// each operation: releases of different links between two callbacks
// are unordered, like the marks.
func releaseMark(i int) int { return -1 - i }

// refStore is the event store written the obvious way: a slice kept
// sorted by (at, schedAt, rank, seq), tombstones left in place until
// they reach the front or outnumber the live entries. It has no notion
// of lanes: link events are entries like any other.
type refStore struct {
	pending     []*refEvent
	deadPending int
	now         Time
	viewSeq     [2]uint64
	order       []int
	unseen      [modelLinks]int // releases run since the last observe
	compactions int

	scheduled, executed, cancelled uint64
}

func (r *refStore) post(rank int32, delay Time, id int) *refEvent {
	r.scheduled++
	r.viewSeq[rank]++
	e := &refEvent{at: r.now + delay, schedAt: r.now, rank: rank, seq: r.viewSeq[rank], id: id}
	r.pending = append(r.pending, e)
	sort.Slice(r.pending, func(i, j int) bool {
		b := r.pending[j]
		return r.pending[i].before(b.at, b.schedAt, b.rank, b.seq)
	})
	return e
}

func (r *refStore) stop(e *refEvent) bool {
	if e.dead {
		return false
	}
	e.dead = true
	r.cancelled++
	r.deadPending++
	if r.deadPending*2 > len(r.pending) {
		live := r.pending[:0]
		for _, p := range r.pending {
			if !p.dead {
				live = append(live, p)
			}
		}
		r.pending = live
		r.deadPending = 0
		r.compactions++
	}
	return true
}

// dropDead pops tombstones off the front, as every read of the top does.
func (r *refStore) dropDead() {
	for len(r.pending) > 0 && r.pending[0].dead {
		r.pending = r.pending[1:]
		r.deadPending--
	}
}

func (r *refStore) step() bool {
	r.dropDead()
	if len(r.pending) == 0 {
		return false
	}
	e := r.pending[0]
	r.pending = r.pending[1:]
	e.dead = true
	r.now = e.at
	r.executed++
	if e.release > 0 {
		r.unseen[e.release-1]++
	} else {
		r.observe()
		r.order = append(r.order, e.id)
	}
	return true
}

// observe records the releases run since the last observation.
func (r *refStore) observe() {
	for i := range r.unseen {
		for ; r.unseen[i] > 0; r.unseen[i]-- {
			r.order = append(r.order, releaseMark(i))
		}
	}
}

func (r *refStore) runBefore(at, schedAt Time, rank int32, seq uint64) {
	for r.dropDead(); len(r.pending) > 0 && r.pending[0].before(at, schedAt, rank, seq); r.dropDead() {
		r.step()
	}
}

// live lists the entries still pending.
func (r *refStore) live() []*refEvent {
	var out []*refEvent
	for _, e := range r.pending {
		if !e.dead {
			out = append(out, e)
		}
	}
	return out
}

// modelStats says what an operation stream made the store do.
type modelStats struct {
	compactions int // tombstone compactions
	lanePeak    int // most link events waiting in lanes at once
	fallbacks   int // in-order-eligible link posts the append rule sent to the heap
}

// runEventStoreModel interprets ops two bytes at a time against one
// engine core (posted to through two node views, so two ranks, each
// sending on two links) and the reference, and fails on the first
// difference.
//
//	0-2  schedule a timer 0-3 ns out
//	3    stop any timer handle ever issued
//	4    stop a pending timer
//	5    step
//	6    run up to a pending event's own key
//	7    run everything strictly before a time
//	8    post a delivery 0-3 ns out, eligible for the link's lane
//	9    post a serializer release 0-3 ns out
//	10   post a reorder-delayed or duplicate delivery (never laned)
//	11   post a burst of 1-4 deliveries at one instant
func runEventStoreModel(t *testing.T, ops []byte) (st modelStats) {
	t.Helper()
	reg := metrics.New()
	eng := NewSharded(1, 1, reg)
	views := [2]*view{eng.NodeView(0).(*view), eng.NodeView(0).(*view)}
	core := eng.cores[0]
	ref := &refStore{}
	type handle struct {
		t Timer
		r *refEvent
	}
	var (
		handles []handle
		order   []int
		nextID  int
		links   [modelLinks]*Link
		seen    [modelLinks]int
	)
	observe := func() {
		for i, l := range links {
			for ; seen[i] < -l.queued; seen[i]++ {
				order = append(order, releaseMark(i))
			}
		}
	}
	for i := range links {
		links[i] = views[i&1].NewLink(LinkConfig{}, func(p *Packet) {
			observe()
			order = append(order, int(binary.LittleEndian.Uint32(p.Data)))
		}).(*Link)
	}
	deliver := func(i int, delay Time, oob bool) {
		id := nextID
		nextID++
		data := binary.LittleEndian.AppendUint32(nil, uint32(id))
		l, behind := links[i], core.behind
		lanes := !oob && l.deliveries.busy
		views[i&1].postDeliver(l, ref.now+delay, data, false, oob)
		ref.post(int32(i&1), delay, id)
		if lanes && core.behind == behind {
			st.fallbacks++
		}
	}
	for pc := 0; pc+1 < len(ops); pc += 2 {
		op, arg := ops[pc]%12, int(ops[pc+1])
		switch op {
		case 0, 1, 2: // post; delays 0-3 ns collide in at, same-instant posts in schedAt
			rank, delay, id := arg&1, Time(arg>>1&3), nextID
			nextID++
			tm := views[rank].ScheduleTimer(time.Duration(delay), func() {
				observe()
				order = append(order, id)
			})
			handles = append(handles, handle{tm, ref.post(int32(rank), delay, id)})
		case 3: // stop any handle ever issued: mostly fired, stopped or recycled ones
			if len(handles) == 0 {
				continue
			}
			h := &handles[arg%len(handles)]
			if got, want := h.t.Stop(), ref.stop(h.r); got != want {
				t.Fatalf("op %d: Stop(event %d) = %v, reference %v", pc/2, h.r.id, got, want)
			}
		case 4: // stop a pending one, so tombstones accumulate
			var live []int
			for i := range handles {
				if !handles[i].r.dead {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				continue
			}
			h := &handles[live[arg%len(live)]]
			if !h.t.Stop() || !ref.stop(h.r) {
				t.Fatalf("op %d: Stop of pending event %d reported false", pc/2, h.r.id)
			}
		case 5:
			if got, want := core.step(nil), ref.step(); got != want {
				t.Fatalf("op %d: step = %v, reference %v", pc/2, got, want)
			}
		case 6: // run up to a pending event's own key: the bound splits equal-at events
			live := ref.live()
			if len(live) == 0 {
				continue
			}
			b := live[arg%len(live)]
			core.runBefore(b.at, b.schedAt, b.rank, b.seq, nil)
			ref.runBefore(b.at, b.schedAt, b.rank, b.seq)
		case 7: // the engine's window horizon: everything strictly before a time
			at := ref.now + Time(arg&3)
			core.runBefore(at, math.MinInt64, math.MinInt32, 0, nil)
			ref.runBefore(at, math.MinInt64, math.MinInt32, 0)
		case 8: // in order whenever the delay does not shrink between posts
			deliver(arg&3, Time(arg>>2&3), false)
		case 9:
			i, delay := arg&3, Time(arg>>2&3)
			views[i&1].postQueueFree(links[i], ref.now+delay)
			ref.post(int32(i&1), delay, nextID).release = i + 1
			nextID++
		case 10:
			deliver(arg&3, Time(arg>>2&3), true)
		case 11: // equal at and schedAt: seq alone orders the burst
			for n := 1 + arg>>2&3; n > 0; n-- {
				deliver(arg&3, Time(arg>>4&3), false)
			}
		}
		observe()
		ref.observe()
		st.lanePeak = max(st.lanePeak, core.behind)
		if len(order) != len(ref.order) {
			t.Fatalf("op %d: executed %v, reference %v", pc/2, order, ref.order)
		}
		for i := range order {
			if order[i] != ref.order[i] {
				t.Fatalf("op %d: execution %d ran %d, reference %d", pc/2, i, order[i], ref.order[i])
			}
		}
		if got := eng.Pending(); got != len(ref.pending) {
			t.Fatalf("op %d: Pending = %d, reference %d", pc/2, got, len(ref.pending))
		}
		if core.now != ref.now {
			t.Fatalf("op %d: now = %v, reference %v", pc/2, core.now, ref.now)
		}
		for _, h := range handles {
			if h.t.Active() != !h.r.dead {
				t.Fatalf("op %d: event %d Active = %v, reference dead = %v", pc/2, h.r.id, h.t.Active(), h.r.dead)
			}
		}
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"netsim/events/scheduled": ref.scheduled,
		"netsim/events/executed":  ref.executed,
		"netsim/events/cancelled": ref.cancelled,
	} {
		if got := snap.Value(name); uint64(got) != want {
			t.Errorf("%s = %d, reference %d", name, got, want)
		}
	}
	st.compactions = ref.compactions
	return st
}

// eventStoreStream is a seeded operation stream weighted so the store
// first fills with timers and link events, then is mostly cancelled,
// then drains while links keep posting — several times over, so
// compaction runs with live events (lane members among them) on both
// sides of it.
func eventStoreStream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		var op byte
		switch phase := i % 300; {
		case phase < 120:
			op = []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 8, 9, 10, 11}[rng.Intn(16)] // posts, stale stops
		case phase < 220:
			op = []byte{4, 4, 4, 3, 0}[rng.Intn(5)] // mostly cancel
		default:
			op = []byte{4, 5, 6, 7, 5, 6, 7, 8, 9}[rng.Intn(9)] // cancel, run, link posts
		}
		ops = append(ops, op, byte(rng.Intn(256)))
	}
	return ops
}

// TestEventStoreMatchesModel: the value heap and its link lanes execute
// exactly what a sorted list would, count what it would, and a Timer
// whose event was recycled for another schedule stays inert. The
// streams must exercise the lanes both ways: members waiting behind a
// head, and in-order-eligible posts the append rule turned away.
func TestEventStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		st := runEventStoreModel(t, eventStoreStream(seed, 3000))
		if st.compactions < 3 {
			t.Errorf("seed %d: stream caused %d compactions, want several", seed, st.compactions)
		}
		if st.lanePeak < 2 || st.fallbacks == 0 {
			t.Errorf("seed %d: lane peak %d, %d fallbacks; want both paths exercised", seed, st.lanePeak, st.fallbacks)
		}
	}
}

func FuzzEventStore(f *testing.F) {
	f.Add(eventStoreStream(1, 300))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 0, 4, 0, 5, 0, 3, 0, 0, 7, 6, 0, 7, 3})
	// In-order, same-instant and shrinking-delay deliveries on one link,
	// a late one, releases, then both run forms.
	f.Add([]byte{8, 0, 8, 4, 11, 0x3c, 8, 0, 10, 0, 9, 1, 9, 5, 0, 0, 6, 3, 7, 3, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 { // the model re-sorts per post: keep one exec in milliseconds
			ops = ops[:4096]
		}
		runEventStoreModel(t, ops)
	})
}

// TestEventStoreSteadyCyclesDoNotAllocate: at a fixed depth neither the
// schedule→step cycle, a whole stop→compact cycle, nor a link
// send→deliver cycle through the lanes allocates — slots are values in
// one array, events come off the freelist, compaction filters that
// array in place, and lanes thread their members through the events.
func TestEventStoreSteadyCyclesDoNotAllocate(t *testing.T) {
	const depth = 1000
	s := NewSimulator(1)
	nop := func() {}
	for i := 0; i < depth; i++ {
		s.ScheduleTimer(time.Hour+time.Duration(i), nop)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.ScheduleTimer(time.Microsecond, nop)
		s.Step()
	}); n != 0 {
		t.Errorf("schedule→step at depth %d allocates %v objects, want 0", depth, n)
	}
	// depth+1 tombstones over depth live events cross the threshold on
	// the last Stop: exactly one compaction per cycle.
	timers := make([]Timer, depth+1)
	if n := testing.AllocsPerRun(20, func() {
		for i := range timers {
			timers[i] = s.ScheduleTimer(time.Minute, nop)
		}
		for i := range timers {
			timers[i].Stop()
		}
	}); n != 0 {
		t.Errorf("stop→compact cycle at depth %d allocates %v objects, want 0", depth, n)
	}
	if p := s.Pending(); p != depth {
		t.Errorf("Pending = %d after the compaction cycles, want %d", p, depth)
	}

	// A link send→deliver cycle: a burst of sends fills the link's two
	// lanes (serializer releases and deliveries), each with its head in
	// the heap and the rest waiting behind it, then drains. The handler
	// keeps the buffer it is handed, so the bufpool stays out of it.
	const burst = 8
	var delivered int
	l := s.NewLink(LinkConfig{Delay: time.Millisecond, RateBps: 1e9}, func(*Packet) { delivered++ }).(*Link)
	buf := make([]byte, 100)
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < burst; i++ {
			l.SendOwned(buf, false)
		}
		if got, heap := s.Pending(), len(s.core.events); got != depth+2*burst || heap != depth+2 {
			t.Fatalf("after a burst: Pending = %d with %d in the heap, want %d with %d", got, heap, depth+2*burst, depth+2)
		}
		for s.Pending() > depth {
			s.Step()
		}
	}); n != 0 {
		t.Errorf("link send→deliver cycle at depth %d allocates %v objects, want 0", depth, n)
	}
	if delivered != 1001*burst {
		t.Errorf("delivered %d packets, want %d", delivered, 1001*burst)
	}
}

// TestRTClockSteadyCyclesDoNotAllocate is the wall-clock half of the
// test above: the RTClock runs the same store from its dispatcher, so
// neither a warmed arm→stop→fire cycle nor an in-process link
// send→deliver cycle allocates. Each cycle is set off inside Exec and
// waited for on a buffered channel the callback signals; the
// pre-built func values keep closures out of the measured loop.
func TestRTClockSteadyCyclesDoNotAllocate(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	done := make(chan struct{}, 1)
	signal := func() { done <- struct{}{} }
	nop := func() {}
	var far Timer
	cycle := func() {
		far = clk.ScheduleTimer(time.Hour, nop)
		clk.ScheduleTimer(0, signal)
		far.Stop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		clk.Exec(cycle)
		<-done
	}); n != 0 {
		t.Errorf("RTClock arm→stop→fire cycle allocates %v objects, want 0", n)
	}

	buf := make([]byte, 100)
	var l *RTLinkCore
	clk.Exec(func() {
		l = NewRTLinkCore(clk, LinkConfig{Delay: 100 * time.Microsecond, RateBps: 1e9}, func(*Packet) { signal() }, nil)
	})
	send := func() { l.SendOwned(buf, false) }
	if n := testing.AllocsPerRun(1000, func() {
		clk.Exec(send)
		<-done
	}); n != 0 {
		t.Errorf("RTClock link send→deliver cycle allocates %v objects, want 0", n)
	}
}

// TestRTClockOrder pins the RTClock key: among due events, deadline
// first, then post time, then post order. The test posts with fixed
// deadlines and post times (ScheduleTimer reads both off the wall
// clock), so ties are real ties.
func TestRTClockOrder(t *testing.T) {
	clk := NewRTClock("test", 1, nil)
	defer clk.Close()
	var got []int
	done := make(chan struct{})
	clk.Exec(func() {
		now := clk.Now()
		at := now + durTicks(20*time.Millisecond)
		post := func(at, schedAt Time, id int) {
			clk.post(at, schedAt, evFunc, nil, false).fn = func() { got = append(got, id) }
		}
		post(at, now, 2)
		post(at, now, 3)
		post(at, now-1, 1) // same deadline, earlier post time
		post(at-1, now, 0) // earlier deadline
		post(at+1, now-2, 4)
		clk.post(at+2, now, evFunc, nil, false).fn = func() { close(done) }
	})
	<-done
	clk.Exec(func() {
		for i, id := range got {
			if id != i {
				t.Fatalf("RTClock ran %v, want 0..4 in order", got)
			}
		}
	})
}

// TestRTLinkFIFO: frames sent back to back on one in-process link, with
// a serializer and without, arrive in send order.
func TestRTLinkFIFO(t *testing.T) {
	for _, cfg := range []LinkConfig{{Delay: time.Millisecond}, {Delay: time.Millisecond, RateBps: 50e6}} {
		clk := NewRTClock("test", 1, nil)
		var got []byte
		clk.Exec(func() {
			l := NewRTLinkCore(clk, cfg, func(p *Packet) { got = append(got, p.Data[0]) }, nil)
			for i := 0; i < 200; i++ {
				l.Send([]byte{byte(i)})
			}
		})
		waitFor(t, clk, "200 deliveries", func() bool { return len(got) == 200 })
		clk.Exec(func() {
			for i, b := range got {
				if b != byte(i) {
					t.Fatalf("%+v: frame %d arrived as %d", cfg, b, i)
				}
			}
		})
		clk.Close()
	}
}
