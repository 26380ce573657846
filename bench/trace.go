package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/netsim"
)

// Spans for the traced run. Everything here lives in the benchmark:
// the bench wraps its own calls into the program (setup, dial, write,
// run_slice, read_verify, close) and, inside run_slice, a bench-owned
// netsim.Tracer stamps the host clock on the program's existing trace
// events and turns consecutive events on one wire buffer into child
// spans. Nothing inside the program is changed or timed from within.

// Span names. The first block is the bench's own calls; the second is
// derived from tracer events.
const (
	spanSetup      = iota // BuildWorld/BuildCluster up to convergence
	spanPlan              // plan generation + listen
	spanStart             // dials due at once, scheduling of the rest
	spanRunSlice          // one Backend.RunFor slice (rpc-rt: the wait for the last reply)
	spanProbe             // one chunk of the host-speed probe, between slices
	spanCheck             // completion check, digest and tally
	spanClose             // stack and world teardown
	spanDial              // Stack.Dial
	spanWrite             // payload generation + Conn.Write
	spanReadVerify        // Conn.ReadAll + stream comparison
	// From here on: spans derived from tracer events (dropStale and
	// cancelDelivery rely on the order).
	spanXmitToWire // transport xmit → link transmit (originate + link send)
	spanHop        // link deliver → net hop → link transmit (forward)
	spanWireToApp  // final link deliver → first upcall or output (demux + input path)
	spanDeliver    // provisional: a delivery not yet classified
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"setup", "plan", "start", "run_slice", "probe", "check", "close", "dial", "write", "read_verify",
	"xmit_to_wire", "hop", "wire_to_app", "deliver",
}

// keepSpans bounds the individual spans retained for the span file;
// the per-name aggregates always cover every span.
const keepSpans = 100_000

type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the recorder started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into spans, -1 at top level
	Flow   uint64 `json:"flow,omitempty"`
}

type spanAgg struct {
	Count uint64 `json:"count"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"` // total minus the time inside child spans
}

type openSpan struct {
	name    int
	start   int64
	childNs int64
	rec     int // index in recs, -1 when not retained
	id      uint64
	flow    uint64
}

// spans is the in-memory recorder and the netsim.Tracer. A nil *spans
// is valid and inert, so the driver calls begin/end unconditionally.
// It is single-threaded: traced reps run on the sequential simulator
// or, for rpc-rt, under the real-time backend's lock.
type spans struct {
	origin time.Time
	// first and last bracket the traced rep: the start of its first
	// top-level span and the end of its last.
	first, last int64
	started     bool
	agg         [numSpanNames]spanAgg
	recs        []spanRec
	dropped     uint64
	stack       []openSpan

	// tracer state
	ids       map[*byte]uint64
	flowOf    map[uint64]uint64
	nextID    uint64
	unpaired  uint64 // events that closed no matching span
	inputOpen bool   // top of stack is a wire_to_app awaiting its closer
}

func newSpans() *spans {
	return &spans{origin: time.Now(), ids: map[*byte]uint64{}, flowOf: map[uint64]uint64{}}
}

func (s *spans) now() int64 { return int64(time.Since(s.origin)) }

func (s *spans) begin(name int) {
	if s == nil {
		return
	}
	s.closeInput(true)
	s.push(name, 0, 0)
}

func (s *spans) push(name int, id, flow uint64) {
	o := openSpan{name: name, start: s.now(), rec: -1, id: id, flow: flow}
	if !s.started {
		s.started, s.first = true, o.start
	}
	if len(s.recs) < keepSpans {
		// Reserve the slot now: children close first and name their
		// parent by this index.
		parent := -1
		if t := s.top(); t != nil {
			parent = t.rec
		}
		o.rec = len(s.recs)
		s.recs = append(s.recs, spanRec{Start: o.start, Parent: parent, Flow: flow})
	} else {
		s.dropped++
	}
	s.stack = append(s.stack, o)
}

func (s *spans) end() {
	if s == nil {
		return
	}
	s.closeInput(false)
	s.dropStale()
	s.pop(true)
}

// dropStale discards tracer-derived spans still open when the bench
// closes one of its own or the next delivery starts: a packet that
// ended without the event that would have closed its span.
func (s *spans) dropStale() {
	for t := s.top(); t != nil && t.name >= spanXmitToWire; t = s.top() {
		s.unpaired++
		s.pop(false)
	}
}

// pop closes the innermost span; keep == false discards it (a
// delivery that turned out to be control traffic or a drop).
func (s *spans) pop(keep bool) {
	n := len(s.stack) - 1
	o := s.stack[n]
	s.stack = s.stack[:n]
	if !keep {
		// A discarded delivery has no children, so its reserved slot
		// is still the last one.
		if o.rec >= 0 && o.rec == len(s.recs)-1 {
			s.recs = s.recs[:o.rec]
		}
		return
	}
	end := s.now()
	dur := end - o.start
	a := &s.agg[o.name]
	a.Count++
	a.Total += dur
	a.Self += dur - o.childNs
	if n > 0 {
		s.stack[n-1].childNs += dur
	} else {
		s.last = end
	}
	if o.rec >= 0 {
		s.recs[o.rec].Name, s.recs[o.rec].End = spanNames[o.name], end
	}
}

// closeInput ends an open wire_to_app span. The input path is over at
// the first upcall into the bench or the first output it causes
// (definite). A segment that causes neither leaves no mark of where
// its processing ended — the next thing seen is another event, after
// engine work or, on the wall-clock backend, idle time — so its span
// is discarded and its time stays in run_slice's self time.
func (s *spans) closeInput(definite bool) {
	if s.inputOpen {
		s.inputOpen = false
		s.pop(definite)
	}
}

// --- netsim.Tracer ---

func keyOf(buf []byte) *byte {
	if cap(buf) == 0 {
		return nil
	}
	return &buf[:1][0]
}

func (s *spans) Stamp(buf []byte) uint64 {
	k := keyOf(buf)
	if k == nil {
		return 0
	}
	s.closeInput(true)
	s.nextID++
	s.ids[k] = s.nextID
	return s.nextID
}

func (s *spans) ID(buf []byte) uint64 {
	k := keyOf(buf)
	if k == nil {
		return 0
	}
	if id, ok := s.ids[k]; ok {
		return id
	}
	return s.Stamp(buf)
}

func (s *spans) Retire(buf []byte) {
	k := keyOf(buf)
	if k == nil {
		return
	}
	if id, ok := s.ids[k]; ok {
		delete(s.ids, k)
		s.cancelDelivery(id)
	}
}

// cancelDelivery discards the open tracer-derived span for id: the
// packet was control traffic or was dropped, so it is no data-path
// span and its time stays in its parent's self time.
func (s *spans) cancelDelivery(id uint64) {
	if t := s.top(); t != nil && t.id == id && t.name >= spanXmitToWire && !s.inputOpen {
		s.pop(false)
	}
}

func (s *spans) top() *openSpan {
	if n := len(s.stack); n > 0 {
		return &s.stack[n-1]
	}
	return nil
}

func (s *spans) Emit(ev netsim.TraceEvent, _ []byte) {
	switch {
	case ev.Layer == netsim.LayerTransport && ev.Kind == "xmit":
		s.closeInput(true)
		s.flowOf[ev.ID] = ev.Flow
		s.push(spanXmitToWire, ev.ID, ev.Flow)
	case ev.Layer == netsim.LayerLink && ev.Kind == "transmit":
		if t := s.top(); t != nil && t.id == ev.ID && (t.name == spanXmitToWire || t.name == spanHop) {
			s.pop(true)
		}
	case ev.Layer == netsim.LayerLink && ev.Kind == "deliver":
		s.closeInput(false)
		s.dropStale()
		s.push(spanDeliver, ev.ID, s.flowOf[ev.ID])
	case ev.Layer == netsim.LayerNet && ev.Kind == "hop":
		if t := s.top(); t != nil && t.id == ev.ID && t.name == spanDeliver {
			t.name = spanHop
		} else {
			s.unpaired++
		}
	case ev.Layer == netsim.LayerNet && ev.Kind == "recv":
		if t := s.top(); t != nil && t.id == ev.ID && t.name == spanDeliver {
			t.name = spanWireToApp
			s.inputOpen = true
		} else {
			s.unpaired++
		}
	case ev.Kind == "drop":
		s.cancelDelivery(ev.ID)
	}
	if ev.End {
		delete(s.flowOf, ev.ID)
	}
}

// --- output ---

type spanFile struct {
	Workload string             `json:"workload"`
	WallNs   int64              `json:"wall_ns"`
	TopNs    int64              `json:"top_level_ns"`
	Dropped  uint64             `json:"spans_not_retained"`
	Unpaired uint64             `json:"unpaired_events"`
	ByName   map[string]spanAgg `json:"by_name"`
	Spans    []spanRec          `json:"spans"`
}

// topLevelNs sums the spans opened directly by the driver loop.
func (s *spans) topLevelNs() int64 {
	var sum int64
	for _, n := range []int{spanSetup, spanPlan, spanStart, spanRunSlice, spanProbe, spanCheck, spanClose} {
		sum += s.agg[n].Total
	}
	return sum
}

// wallNs is the traced rep's wall time, set-up start to close end.
func (s *spans) wallNs() int64 { return s.last - s.first }

func (s *spans) write(path, workload string) error {
	f := spanFile{Workload: workload, WallNs: s.wallNs(), TopNs: s.topLevelNs(), Dropped: s.dropped,
		Unpaired: s.unpaired, ByName: map[string]spanAgg{}, Spans: s.recs}
	for i, a := range s.agg {
		if a.Count > 0 {
			f.ByName[spanNames[i]] = a
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
