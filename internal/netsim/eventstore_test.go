package netsim

import (
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

// refStore is the event store written the obvious way: a slice kept
// sorted by (at, schedAt, rank, seq), tombstones left in place until
// they reach the front or outnumber the live entries.
type refStore struct {
	pending     []*refEvent
	deadPending int
	now         Time
	viewSeq     [2]uint64
	order       []int
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
	r.order = append(r.order, e.id)
	return true
}

func (r *refStore) runBefore(at, schedAt Time, rank int32, seq uint64) {
	for r.dropDead(); len(r.pending) > 0 && r.pending[0].before(at, schedAt, rank, seq); r.dropDead() {
		r.step()
	}
}

// live lists the entries a Stop could still cancel.
func (r *refStore) live() []*refEvent {
	var out []*refEvent
	for _, e := range r.pending {
		if !e.dead {
			out = append(out, e)
		}
	}
	return out
}

// runEventStoreModel interprets ops two bytes at a time against one
// engine core (posted to through two node views, so two ranks) and the
// reference, and fails on the first difference. It returns how many
// compactions the stream caused.
func runEventStoreModel(t *testing.T, ops []byte) (compactions int) {
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
	)
	for pc := 0; pc+1 < len(ops); pc += 2 {
		op, arg := ops[pc]%8, int(ops[pc+1])
		switch op {
		case 0, 1, 2: // post; delays 0-3 ns collide in at, same-instant posts in schedAt
			rank, delay, id := arg&1, Time(arg>>1&3), len(handles)
			tm := views[rank].ScheduleTimer(time.Duration(delay), func() { order = append(order, id) })
			handles = append(handles, handle{tm, ref.post(int32(rank), delay, id)})
		case 3: // stop any handle ever issued: mostly fired, stopped or recycled ones
			if len(handles) == 0 {
				continue
			}
			h := &handles[arg%len(handles)]
			if got, want := h.t.Stop(), ref.stop(h.r); got != want {
				t.Fatalf("op %d: Stop(handle %d) = %v, reference %v", pc/2, h.r.id, got, want)
			}
		case 4: // stop a pending one, so tombstones accumulate
			live := ref.live()
			if len(live) == 0 {
				continue
			}
			h := &handles[live[arg%len(live)].id]
			if !h.t.Stop() || !ref.stop(h.r) {
				t.Fatalf("op %d: Stop of pending handle %d reported false", pc/2, h.r.id)
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
		}
		if len(order) != len(ref.order) {
			t.Fatalf("op %d: executed %d events, reference %d", pc/2, len(order), len(ref.order))
		}
		for i := range order {
			if order[i] != ref.order[i] {
				t.Fatalf("op %d: execution %d ran event %d, reference %d", pc/2, i, order[i], ref.order[i])
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
				t.Fatalf("op %d: handle %d Active = %v, reference dead = %v", pc/2, h.r.id, h.t.Active(), h.r.dead)
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
	return ref.compactions
}

// eventStoreStream is a seeded operation stream weighted so the heap
// first fills, then is mostly cancelled, then drains — several times
// over, so compaction runs with live events on both sides of it.
func eventStoreStream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		var op byte
		switch phase := i % 300; {
		case phase < 120:
			op = byte(rng.Intn(4)) // post, stale stops
		case phase < 220:
			op = []byte{4, 4, 4, 3, 0}[rng.Intn(5)] // mostly cancel
		default:
			op = byte(4 + rng.Intn(4)) // cancel, step, both runBefore forms
		}
		ops = append(ops, op, byte(rng.Intn(256)))
	}
	return ops
}

// TestEventStoreMatchesModel: the value heap executes exactly what a
// sorted list would, counts what it would, and a Timer whose event was
// recycled for another schedule stays inert.
func TestEventStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if c := runEventStoreModel(t, eventStoreStream(seed, 3000)); c < 3 {
			t.Errorf("seed %d: stream caused %d compactions, want several", seed, c)
		}
	}
}

func FuzzEventStore(f *testing.F) {
	f.Add(eventStoreStream(1, 300))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 0, 4, 0, 5, 0, 3, 0, 0, 7, 6, 0, 7, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 { // the model re-sorts per post: keep one exec in milliseconds
			ops = ops[:4096]
		}
		runEventStoreModel(t, ops)
	})
}

// TestEventStoreSteadyCyclesDoNotAllocate: at a fixed depth neither the
// schedule→step cycle nor a whole stop→compact cycle allocates — slots
// are values in one array, events come off the freelist, and compaction
// filters that array in place.
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
}
