package trace

import (
	"encoding/json"
	"io"

	"repro/internal/netsim"
)

// Options bounds the Collector's memory. Every bound has a sensible
// default; a zero Options is valid.
type Options struct {
	// RingCap caps the recent-events flight-recorder ring (default
	// 4096). On overflow the oldest event is dropped and counted —
	// emission never blocks and never fails.
	RingCap int
	// MaxChains caps concurrently tracked live causal chains (default
	// 1024). On overflow the oldest live chain is finalized early.
	MaxChains int
	// MaxChainEvents caps events retained per chain (default 64);
	// further events on a full chain are counted, not stored.
	MaxChainEvents int
	// DoneCap caps retained completed chains (default 512).
	DoneCap int
	// MaxDumps caps retained abort/violation flight dumps (default 16).
	MaxDumps int
}

func (o *Options) defaults() {
	if o.RingCap <= 0 {
		o.RingCap = 4096
	}
	if o.MaxChains <= 0 {
		o.MaxChains = 1024
	}
	if o.MaxChainEvents <= 0 {
		o.MaxChainEvents = 64
	}
	if o.DoneCap <= 0 {
		o.DoneCap = 512
	}
	if o.MaxDumps <= 0 {
		o.MaxDumps = 16
	}
}

// Chain is the recorded causal chain of one wire-buffer incarnation:
// every span event that named its ID, in emission order.
type Chain struct {
	ID uint64 `json:"id"`
	// Flow/Seq are copied from the first event that carried them, so a
	// chain is findable by transport coordinates even though most link
	// and network events do not know the flow.
	Flow uint64 `json:"flow,omitempty"`
	Seq  uint32 `json:"seq,omitempty"`
	// Truncated counts events beyond MaxChainEvents that were observed
	// but not retained.
	Truncated uint64              `json:"truncated,omitempty"`
	Events    []netsim.TraceEvent `json:"events"`
}

// FlightDump is the snapshot the flight recorder takes when a
// connection aborts or a watchdog/contract violation fires: the
// triggering event, the full causal chain of the offending packet, and
// the most recent window of all traffic. Everything is virtual-time
// only and append-ordered, so same-seed runs dump byte-identical JSON.
type FlightDump struct {
	Reason netsim.TraceEvent   `json:"reason"`
	Note   string              `json:"note,omitempty"`
	Chain  *Chain              `json:"chain,omitempty"`
	Recent []netsim.TraceEvent `json:"recent"`
}

// Collector is the per-simulator netsim.Tracer implementation: it
// assigns generation-safe packet IDs keyed by each pooled buffer's
// backing array, appends span events to a bounded flight-recorder ring,
// maintains per-ID causal chains, and snapshots a FlightDump whenever a
// transport abort event arrives.
//
// A Collector belongs to exactly one simulator (attach with
// sim.SetTracer) and is not safe for concurrent use — the simulator's
// event loop is single-threaded, which is also what keeps the event
// order deterministic. It is strictly observational: it never touches
// the metrics registry, never consumes simulator randomness and never
// schedules events, so attaching it cannot change packet outcomes.
type Collector struct {
	opts Options

	// Label, when set, names the recording in the Report ("seed-17",
	// "seed-17-shrunk"): a fuzz campaign's evidence trail carries which
	// shrink round each dump belongs to without relying on file names.
	Label string

	// Generation-safe ID table. ids maps a buffer's backing-array
	// pointer to its current incarnation's ID; ptrOf is the reverse,
	// so End events and Retire can drop the mapping precisely even
	// though Emit only knows the ID.
	nextID uint64
	ids    map[*byte]uint64
	ptrOf  map[uint64]*byte

	// Flight-recorder ring of recent events (circular; head is the
	// index of the oldest retained event).
	ring        []netsim.TraceEvent
	head        int
	total       uint64
	ringDropped uint64

	// Live causal chains, keyed by ID, evicted FIFO by birth order.
	chains     map[uint64]*Chain
	birthOrder []uint64
	evicted    uint64

	// Completed chains, oldest-drop.
	done        []Chain
	doneDropped uint64

	// lastByFlow remembers the most recently finished chain of each
	// transport flow even after it leaves the done ring, so an abort
	// snapshot can still show what happened to the flow's last packet
	// when the abort fires long after the data stopped moving (control
	// traffic keeps cycling the ring in the meantime).
	lastByFlow map[uint64]Chain

	dumps        []FlightDump
	dumpsDropped uint64

	// OnFrame, when set, receives every event that carries wire bytes
	// (link transmit and dup events). The pcap writer hooks in here.
	// The frame is only valid for the duration of the call.
	OnFrame func(ev netsim.TraceEvent, frame []byte)
}

// NewCollector returns a Collector with the given bounds.
func NewCollector(opts Options) *Collector {
	opts.defaults()
	return &Collector{
		opts:       opts,
		ids:        make(map[*byte]uint64),
		ptrOf:      make(map[uint64]*byte),
		ring:       make([]netsim.TraceEvent, 0, opts.RingCap),
		chains:     make(map[uint64]*Chain),
		lastByFlow: make(map[uint64]Chain),
	}
}

func keyOf(buf []byte) *byte {
	if len(buf) == 0 {
		return nil
	}
	return &buf[0]
}

// Stamp implements netsim.Tracer: assign a fresh ID to a wire buffer
// entering the data path. Re-stamping a recycled backing array
// overwrites the stale mapping, which is what makes IDs
// generation-safe.
func (c *Collector) Stamp(buf []byte) uint64 {
	k := keyOf(buf)
	if k == nil {
		return 0
	}
	if old, ok := c.ids[k]; ok {
		delete(c.ptrOf, old)
	}
	c.nextID++
	c.ids[k] = c.nextID
	c.ptrOf[c.nextID] = k
	return c.nextID
}

// ID implements netsim.Tracer: the current ID of a stamped buffer, or
// a fresh stamp if the buffer entered the traced region unseen.
func (c *Collector) ID(buf []byte) uint64 {
	k := keyOf(buf)
	if k == nil {
		return 0
	}
	if id, ok := c.ids[k]; ok {
		return id
	}
	return c.Stamp(buf)
}

// Retire implements netsim.Tracer: drop the mapping of a buffer about
// to be recycled without a terminal data-path event. Its chain, if
// any, is finalized.
func (c *Collector) Retire(buf []byte) {
	k := keyOf(buf)
	if k == nil {
		return
	}
	id, ok := c.ids[k]
	if !ok {
		return
	}
	delete(c.ids, k)
	delete(c.ptrOf, id)
	c.finish(id)
}

// Emit implements netsim.Tracer.
func (c *Collector) Emit(ev netsim.TraceEvent, frame []byte) {
	c.total++
	// Flight-recorder ring: O(1) oldest-drop, never blocks.
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, ev)
	} else {
		c.ring[c.head] = ev
		c.head = (c.head + 1) % len(c.ring)
		c.ringDropped++
	}
	if ev.ID != 0 {
		c.appendChain(ev)
	}
	if frame != nil && c.OnFrame != nil {
		c.OnFrame(ev, frame)
	}
	if ev.Kind == "abort" {
		c.snapshot(ev, "")
	}
	if ev.End && ev.ID != 0 {
		if k, ok := c.ptrOf[ev.ID]; ok {
			delete(c.ids, k)
			delete(c.ptrOf, ev.ID)
		}
		c.finish(ev.ID)
	}
}

func (c *Collector) appendChain(ev netsim.TraceEvent) {
	ch, ok := c.chains[ev.ID]
	if !ok {
		// Cap live chains: pop birth order (skipping entries whose chain
		// already completed) until there is room for the newcomer.
		for len(c.chains) >= c.opts.MaxChains && len(c.birthOrder) > 0 {
			oldest := c.birthOrder[0]
			c.birthOrder = c.birthOrder[1:]
			if _, live := c.chains[oldest]; live {
				c.evicted++
				c.finish(oldest)
			}
		}
		ch = &Chain{ID: ev.ID}
		c.chains[ev.ID] = ch
		c.birthOrder = append(c.birthOrder, ev.ID)
	}
	if ch.Flow == 0 && ev.Flow != 0 {
		ch.Flow, ch.Seq = ev.Flow, ev.Seq
	}
	if len(ch.Events) >= c.opts.MaxChainEvents {
		ch.Truncated++
		return
	}
	ch.Events = append(ch.Events, ev)
}

// finish moves a live chain into the completed ring.
func (c *Collector) finish(id uint64) {
	ch, ok := c.chains[id]
	if !ok {
		return
	}
	delete(c.chains, id)
	if ch.Flow != 0 {
		c.lastByFlow[ch.Flow] = *ch
	}
	if len(c.done) >= c.opts.DoneCap {
		n := copy(c.done, c.done[1:])
		c.done = c.done[:n]
		c.doneDropped++
	}
	c.done = append(c.done, *ch)
}

// snapshot captures a FlightDump around a triggering event.
func (c *Collector) snapshot(reason netsim.TraceEvent, note string) {
	if len(c.dumps) >= c.opts.MaxDumps {
		c.dumpsDropped++
		return
	}
	d := FlightDump{Reason: reason, Note: note, Recent: c.Recent()}
	if reason.ID != 0 {
		if ch := c.ChainOf(reason.ID); ch != nil {
			d.Chain = ch
		}
	}
	// An abort often fires long after its packet's chain completed and
	// cycled out of the done ring; fall back to the flow's last finished
	// data chain so the dump still shows where the packet died.
	if (d.Chain == nil || len(d.Chain.Events) <= 1) && reason.Flow != 0 {
		if prev, ok := c.lastByFlow[reason.Flow]; ok && len(prev.Events) > 1 {
			cp := prev
			cp.Events = append([]netsim.TraceEvent(nil), prev.Events...)
			d.Chain = &cp
		}
	}
	c.dumps = append(c.dumps, d)
}

// NoteViolation lets a watchdog or contract checker trigger a flight
// dump for a condition the data path itself cannot see (e.g. "transfer
// stalled past deadline"). id may be zero when no packet is implicated.
func (c *Collector) NoteViolation(at netsim.Time, node, note string, id uint64) {
	c.snapshot(netsim.TraceEvent{At: at, ID: id, Node: node, Layer: netsim.LayerTransport,
		Kind: "violation"}, note)
}

// Recent returns the retained flight-recorder window, oldest first.
func (c *Collector) Recent() []netsim.TraceEvent {
	out := make([]netsim.TraceEvent, 0, len(c.ring))
	for i := 0; i < len(c.ring); i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)])
	}
	return out
}

// ChainOf returns a copy of the causal chain of id — live or completed
// — or nil if the collector never saw it (or already dropped it).
func (c *Collector) ChainOf(id uint64) *Chain {
	if ch, ok := c.chains[id]; ok {
		cp := *ch
		cp.Events = append([]netsim.TraceEvent(nil), ch.Events...)
		return &cp
	}
	for i := len(c.done) - 1; i >= 0; i-- {
		if c.done[i].ID == id {
			cp := c.done[i]
			cp.Events = append([]netsim.TraceEvent(nil), c.done[i].Events...)
			return &cp
		}
	}
	return nil
}

// Report is the deterministic machine-readable form of a whole
// collection run: bounded counters plus ordered structures only (live
// chains appear in birth order, never map order), so two same-seed
// runs marshal byte-identically.
type Report struct {
	Label        string              `json:"label,omitempty"`
	Total        uint64              `json:"total"`
	RingDropped  uint64              `json:"ring_dropped"`
	Evicted      uint64              `json:"chains_evicted"`
	DoneDropped  uint64              `json:"done_dropped"`
	DumpsDropped uint64              `json:"dumps_dropped"`
	Dumps        []FlightDump        `json:"dumps,omitempty"`
	Completed    []Chain             `json:"completed,omitempty"`
	Live         []Chain             `json:"live,omitempty"`
	Recent       []netsim.TraceEvent `json:"recent"`
}

// Report assembles the deterministic run report.
func (c *Collector) Report() Report {
	r := Report{
		Label:        c.Label,
		Total:        c.total,
		RingDropped:  c.ringDropped,
		Evicted:      c.evicted,
		DoneDropped:  c.doneDropped,
		DumpsDropped: c.dumpsDropped,
		Dumps:        c.dumps,
		Completed:    c.done,
		Recent:       c.Recent(),
	}
	for _, id := range c.birthOrder {
		if ch, ok := c.chains[id]; ok {
			r.Live = append(r.Live, *ch)
		}
	}
	return r
}

// WriteJSON writes the Report as indented JSON. Output is
// byte-deterministic across same-seed runs: all times are virtual and
// all slices append-ordered.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Report())
}
