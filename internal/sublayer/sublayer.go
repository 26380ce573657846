// Package sublayer is the paper's core contribution as an executable
// framework: layering recursively *within* a layer.
//
// A Sublayer transforms PDUs moving down (toward the wire) and up
// (toward the application) and may hold state and timers — enough to
// express framing, error detection, ARQ and MAC as independent modules.
// A Stack composes an ordered list of sublayers and polices the paper's
// three litmus tests:
//
//	T1 — sublayers are ordered; each declares the distinct service it
//	     adds over the one below (Service) and communicates with a peer
//	     sublayer at another endpoint.
//	T2 — sublayers communicate with adjacent sublayers only through the
//	     narrow Runtime interface (SendDown/DeliverUp plus the typed
//	     Meta fields each boundary documents); the Stack counts every
//	     crossing, which the offload experiment (E9) consumes.
//	T3 — each sublayer acts on its own header bytes and state,
//	     invisible to the others. Go cannot hardware-protect memory, so
//	     T3 is established the way the paper suggests sublayers be
//	     validated: by replacement. The tests swap each sublayer's
//	     implementation (CRC-32→CRC-16, bit-stuffing→byte-stuffing,
//	     go-back-N→selective repeat) and verify no other sublayer
//	     changes behaviour or observes different bytes.
//
// The transport sublayers in internal/transport/sublayered follow the
// same discipline with connection-typed interfaces; this package's
// generic PDU pipeline is used by the per-link data-link stacks.
package sublayer

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// PDU is the unit passed between sublayers. Data usually holds payload
// bytes; below a framing sublayer it holds a packed bit string whose
// exact length is BitLen (frames are generally not whole octets once
// stuffed).
type PDU struct {
	Data   []byte
	BitLen int // >0: Data is a bit string of this many bits, MSB-first
	Meta   Meta
}

// Meta is the typed "interface data" that crosses sublayer boundaries
// alongside the PDU (litmus test T2: a narrow, enumerable interface —
// never a side channel into another sublayer's state). Each field is
// owned by one boundary:
type Meta struct {
	// ErrDetected is set by the error-detection sublayer on receive and
	// read by the error-recovery sublayer above it — the paper's
	// example interface: "frames with a flag indicating a bit error".
	ErrDetected bool
	// ECN is the congestion-experienced mark carried between the
	// network and the OSR sublayer's congestion control.
	ECN bool
}

// NewPDU wraps payload bytes in a PDU.
func NewPDU(data []byte) *PDU { return &PDU{Data: data} }

// Runtime is everything a sublayer may touch outside itself: the
// adjacent boundaries, virtual time, and simulation randomness.
type Runtime interface {
	// SendDown passes a PDU to the sublayer below (or the wire).
	SendDown(p *PDU)
	// DeliverUp passes a PDU to the sublayer above (or the app).
	DeliverUp(p *PDU)
	// Schedule arms a virtual-time callback.
	Schedule(d time.Duration, fn func()) *netsim.Timer
	// Rand is the simulation-owned randomness.
	Rand() *rand.Rand
	// Drop records an intentional discard with a reason (stats only).
	Drop(p *PDU, reason string)
}

// Sublayer is one module within a layer.
type Sublayer interface {
	// Name identifies the sublayer ("framing", "errdetect", ...).
	Name() string
	// Service is the distinct function this sublayer adds over the one
	// below (litmus test T1); the Stack requires it to be nonempty.
	Service() string
	// Attach hands the sublayer its runtime. Called once by the Stack.
	Attach(rt Runtime)
	// HandleDown accepts a PDU from the sublayer above, headed for the
	// wire. The sublayer transforms it and calls rt.SendDown zero or
	// more times (an ARQ sublayer may hold and retransmit).
	HandleDown(p *PDU)
	// HandleUp accepts a PDU from the sublayer below, headed for the
	// application. The sublayer strips/validates and calls
	// rt.DeliverUp zero or more times.
	HandleUp(p *PDU)
}

// Boundary is a frozen view of traffic across one sublayer boundary —
// the raw material of the offload experiment (how many crossings would
// become bus transactions if the layers below were moved to hardware).
type Boundary struct {
	Above, Below string // sublayer names; "app"/"wire" at the ends
	Down, Up     uint64 // PDUs crossing in each direction
	DownBytes    uint64
	UpBytes      uint64
	Drops        uint64
}

// boundary is the live counter set behind one Boundary view. The
// counters register into the metrics registry via Stack.BindMetrics.
type boundary struct {
	above, below string
	down, up     metrics.Counter
	downBytes    metrics.Counter
	upBytes      metrics.Counter
	drops        metrics.Counter
}

func (b *boundary) view() Boundary {
	return Boundary{
		Above: b.above, Below: b.below,
		Down: b.down.Value(), Up: b.up.Value(),
		DownBytes: b.downBytes.Value(), UpBytes: b.upBytes.Value(),
		Drops: b.drops.Value(),
	}
}

// Stack composes sublayers top-to-bottom over a simulator.
type Stack struct {
	name   string
	sim    netsim.Backend
	layers []Sublayer // index 0 = top
	rts    []*runtime
	// boundaries[i] sits above layers[i]; boundaries[len] is the wire.
	boundaries []boundary
	app        func(*PDU)
	wire       func(*PDU)
	tracer     func(ev string, layer string, p *PDU)
}

// New builds a stack from top to bottom and validates litmus test T1
// metadata: every sublayer must carry a name and a service description,
// and names must be unique.
func New(sim netsim.Backend, name string, layers ...Sublayer) (*Stack, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("sublayer: stack %q has no sublayers", name)
	}
	seen := make(map[string]bool)
	for i, l := range layers {
		if l.Name() == "" {
			return nil, fmt.Errorf("sublayer: stack %q layer %d has no name", name, i)
		}
		if strings.TrimSpace(l.Service()) == "" {
			return nil, fmt.Errorf("sublayer: stack %q layer %q declares no service (T1)", name, l.Name())
		}
		if seen[l.Name()] {
			return nil, fmt.Errorf("sublayer: stack %q has duplicate layer %q", name, l.Name())
		}
		seen[l.Name()] = true
	}
	s := &Stack{
		name:       name,
		sim:        sim,
		layers:     layers,
		boundaries: make([]boundary, len(layers)+1),
	}
	for i := range s.boundaries {
		above, below := "app", "wire"
		if i > 0 {
			above = layers[i-1].Name()
		}
		if i < len(layers) {
			below = layers[i].Name()
		}
		s.boundaries[i].above, s.boundaries[i].below = above, below
	}
	s.rts = make([]*runtime, len(layers))
	for i, l := range layers {
		s.rts[i] = &runtime{stack: s, idx: i}
		l.Attach(s.rts[i])
	}
	return s, nil
}

// MustNew is New that panics on a malformed stack; for tests and
// examples with static layer lists.
func MustNew(sim netsim.Backend, name string, layers ...Sublayer) *Stack {
	s, err := New(sim, name, layers...)
	if err != nil {
		panic(err)
	}
	return s
}

// SetApp registers the top-of-stack consumer.
func (s *Stack) SetApp(fn func(*PDU)) { s.app = fn }

// SetWire registers the bottom-of-stack transmitter.
func (s *Stack) SetWire(fn func(*PDU)) { s.wire = fn }

// SetTracer installs an optional observer invoked on every boundary
// crossing ("down"/"up"/"drop").
func (s *Stack) SetTracer(fn func(ev, layer string, p *PDU)) { s.tracer = fn }

// Layers returns the sublayers, top first.
func (s *Stack) Layers() []Sublayer { return s.layers }

// Send injects a PDU at the top of the stack (from the application).
func (s *Stack) Send(p *PDU) { s.down(0, p) }

// Receive injects a PDU at the bottom (from the wire).
func (s *Stack) Receive(p *PDU) { s.up(len(s.layers)-1, p) }

// Boundaries returns a snapshot of per-boundary crossing statistics,
// index 0 = app boundary, last = wire boundary.
func (s *Stack) Boundaries() []Boundary {
	out := make([]Boundary, len(s.boundaries))
	for i := range s.boundaries {
		out[i] = s.boundaries[i].view()
	}
	return out
}

// BindMetrics adopts the stack's boundary counters into sc under
// "boundary/<i>-<above>-<below>/..." and offers every sublayer that
// implements metrics.Instrumented a scope named after itself. Safe to
// call with a nil scope.
func (s *Stack) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	for i := range s.boundaries {
		b := &s.boundaries[i]
		bsc := sc.Sub(fmt.Sprintf("boundary/%d-%s-%s", i, b.above, b.below))
		bsc.Register("down", &b.down)
		bsc.Register("up", &b.up)
		bsc.Register("down_bytes", &b.downBytes)
		bsc.Register("up_bytes", &b.upBytes)
		bsc.Register("drops", &b.drops)
	}
	for _, l := range s.layers {
		if in, ok := l.(metrics.Instrumented); ok {
			in.BindMetrics(sc.Sub(l.Name()))
		}
	}
}

// down delivers p into layers[i].HandleDown, accounting the boundary
// above layer i.
func (s *Stack) down(i int, p *PDU) {
	b := &s.boundaries[i]
	b.down.Inc()
	b.downBytes.Add(uint64(len(p.Data)))
	if s.tracer != nil {
		name := "wire"
		if i < len(s.layers) {
			name = s.layers[i].Name()
		}
		s.tracer("down", name, p)
	}
	if i == len(s.layers) {
		if s.wire != nil {
			s.wire(p)
		}
		return
	}
	s.layers[i].HandleDown(p)
}

// up delivers p into layers[i].HandleUp, accounting the boundary below
// layer i... i == -1 delivers to the app.
func (s *Stack) up(i int, p *PDU) {
	b := &s.boundaries[i+1]
	b.up.Inc()
	b.upBytes.Add(uint64(len(p.Data)))
	if s.tracer != nil {
		name := "app"
		if i >= 0 {
			name = s.layers[i].Name()
		}
		s.tracer("up", name, p)
	}
	if i < 0 {
		if s.app != nil {
			s.app(p)
		}
		return
	}
	s.layers[i].HandleUp(p)
}

// runtime is the per-sublayer view handed out at Attach.
type runtime struct {
	stack *Stack
	idx   int
}

func (r *runtime) SendDown(p *PDU)  { r.stack.down(r.idx+1, p) }
func (r *runtime) DeliverUp(p *PDU) { r.stack.up(r.idx-1, p) }
func (r *runtime) Schedule(d time.Duration, fn func()) *netsim.Timer {
	return r.stack.sim.Schedule(d, fn)
}
func (r *runtime) Rand() *rand.Rand { return r.stack.sim.Rand() }
func (r *runtime) Drop(p *PDU, reason string) {
	r.stack.boundaries[r.idx].drops.Inc()
	if r.stack.tracer != nil {
		r.stack.tracer("drop:"+reason, r.stack.layers[r.idx].Name(), p)
	}
}

// Describe renders the stack for documentation and the T1 report: each
// sublayer with the service it adds, top to bottom.
func (s *Stack) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stack %q (top to bottom):\n", s.name)
	for _, l := range s.layers {
		fmt.Fprintf(&b, "  %-12s %s\n", l.Name(), l.Service())
	}
	return b.String()
}
