package netsim

// Causal-tracing hook points.
//
// netsim owns the hook *types* (so the simulator, links and every layer
// above can emit without importing the collector) while internal/trace
// owns the implementation: a per-simulator Tracer that assigns
// generation-safe packet IDs, keeps a bounded flight-recorder ring and
// reconstructs causal chains. The split avoids an import cycle — trace
// already imports netsim for Time and the packet decoders.
//
// Tracing is off by default: the simulator holds a nil Tracer and every
// emission site guards with a single nil check, so the disabled cost is
// one predictable branch per event and zero allocations (bench/ prices
// the enabled case as trace.overhead_ratio).

// Trace layers. Constants rather than free-form strings so events
// compare and marshal identically across runs.
const (
	LayerLink      = "link"
	LayerNet       = "net"
	LayerTransport = "transport"
)

// Trace verdicts: why a packet (or a whole connection) left the data
// path. Empty means the event is a normal hop, not a terminal outcome.
const (
	VerdictLost       = "lost"        // random link loss
	VerdictQueueDrop  = "queue_drop"  // serializer queue overflow
	VerdictDownDrop   = "down_drop"   // link was administratively down
	VerdictTTLExpired = "ttl_expired" // router hop limit reached
	VerdictNoRoute    = "no_route"    // FIB miss
	VerdictBlackholed = "blackholed"  // data-plane drop filter
	VerdictMalformed  = "malformed"   // undecodable wire bytes
	VerdictDelivered  = "delivered"   // reached its destination protocol
	VerdictTimeout    = "timeout"     // user timeout abort
	VerdictReset      = "reset"       // RST abort
)

// TraceEvent is one typed span event on a packet's causal chain: who
// (Node/Layer), what (Kind/Verdict), when (At, virtual time), and which
// packet (ID, plus the Flow/Seq transport correlators that tie
// retransmissions of the same segment together across distinct wire
// buffers). Events are plain data — the Tracer decides retention.
type TraceEvent struct {
	At Time `json:"at"`
	// ID identifies one wire-buffer incarnation (assigned by the
	// Tracer's stamp; generation-safe: a recycled buffer gets a fresh
	// ID). Zero means the event is not tied to a specific buffer
	// (e.g. a connection-level abort).
	ID uint64 `json:"id"`
	// Flow packs the transport 4-tuple (srcAddr<<48 | dstAddr<<32 |
	// srcPort<<16 | dstPort); zero below the transport layer.
	Flow uint64 `json:"flow,omitempty"`
	// Seq is the transport sequence number when relevant; together with
	// Flow it correlates retransmissions across buffer incarnations.
	Seq uint32 `json:"seq,omitempty"`
	// Len is the wire or payload length in bytes.
	Len int `json:"len,omitempty"`
	// TTL is the datagram hop limit after a router's decrement (network
	// "hop" events only).
	TTL uint8 `json:"ttl,omitempty"`
	// Node names the emitting component ("link2", "n3", "n1/sub").
	Node string `json:"node"`
	// Layer is one of the Layer* constants.
	Layer string `json:"layer"`
	// Kind is the event type ("transmit", "deliver", "corrupt", "dup",
	// "hop", "send", "rexmit", "ack", "rto", "abort", ...).
	Kind string `json:"kind"`
	// Verdict, when non-empty, classifies a terminal outcome.
	Verdict string `json:"verdict,omitempty"`
	// End marks the death of the buffer behind ID: the tracer retires
	// the ID so the backing array can be recycled under a fresh one.
	End bool `json:"end,omitempty"`
}

// Tracer collects trace events for one simulator. Implementations must
// not mutate simulator state, consume simulator randomness or schedule
// events — tracing is strictly observational, so enabling it never
// changes metrics or packet outcomes.
type Tracer interface {
	// Stamp assigns a fresh ID to a wire buffer entering the data path
	// (called where the buffer is allocated/filled). Re-stamping a
	// pointer that is being recycled overwrites the stale mapping,
	// which is what makes IDs generation-safe.
	Stamp(buf []byte) uint64
	// ID returns the current ID of a previously stamped buffer, or
	// stamps it if unseen (a buffer can enter the traced region midway,
	// e.g. raw frames handed straight to a link).
	ID(buf []byte) uint64
	// Emit appends one span event. frame, when non-nil, carries the
	// full wire bytes at link-transmit time for packet capture; the
	// tracer must copy it before returning.
	Emit(ev TraceEvent, frame []byte)
	// Retire drops the ID mapping of a buffer that is about to be
	// recycled without a terminal data-path event (control traffic a
	// router consumes). Events with End set retire implicitly; every
	// other bufpool.Put of a stamped buffer must be preceded by one of
	// the two, or a recycled backing array could inherit a stale ID.
	Retire(buf []byte)
}

// PackFlow packs a transport 4-tuple into the TraceEvent.Flow
// correlator: srcAddr<<48 | dstAddr<<32 | srcPort<<16 | dstPort.
func PackFlow(srcAddr, dstAddr, srcPort, dstPort uint16) uint64 {
	return uint64(srcAddr)<<48 | uint64(dstAddr)<<32 | uint64(srcPort)<<16 | uint64(dstPort)
}

// UnpackFlow splits a Flow correlator back into its 4-tuple.
func UnpackFlow(f uint64) (srcAddr, dstAddr, srcPort, dstPort uint16) {
	return uint16(f >> 48), uint16(f >> 32), uint16(f >> 16), uint16(f)
}
