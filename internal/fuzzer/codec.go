package fuzzer

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
)

// Codec-equivalence oracle.
//
// tcpwire keeps two codec paths per wire format: the allocating one
// (Marshal / UnmarshalTCP / UnmarshalSub) and the pooled zero-copy one
// (MarshalTo+WireLen / UnmarshalTCPInto / UnmarshalSubInto). The repo
// already fuzzes them on synthetic inputs; here they are checked on
// every *live* wire crossing of every fuzz run, Leapfrog-style: for
// each transmitted frame both decoders must agree (same error verdict,
// same header, same payload), and re-encoding the decoded form through
// both encoders must reproduce the original wire bytes exactly. Any
// disagreement means one codec path lies about what the stack put on
// the wire — precisely the divergence pooled buffer reuse can smuggle
// past unit tests.

// CheckFrame runs the codec-equivalence oracle on one link-level frame
// and reports whether the frame carried a TCP or sublayered-TCP
// segment for it to decode. Control-plane frames (hello, routing) and
// other datagrams are not a codec question and pass vacuously. A nil
// error means the codecs agree on this frame.
func CheckFrame(frame []byte) (decoded bool, err error) {
	if len(frame) == 0 || frame[0] != 0 {
		return false, nil // control plane
	}
	dg, err := network.UnmarshalDatagram(frame)
	if err != nil {
		return false, nil // malformed datagram: the network layer's problem
	}
	switch dg.Proto {
	case network.ProtoTCP:
		return true, checkTCP(dg)
	case network.ProtoSubTCP:
		return true, checkSub(dg)
	default:
		return false, nil
	}
}

func checkTCP(dg *network.Datagram) error {
	src, dst := uint16(dg.Src), uint16(dg.Dst)
	h1, p1, err1 := tcpwire.UnmarshalTCP(dg.Payload, src, dst)
	var h2 tcpwire.TCPHeader
	p2, err2 := tcpwire.UnmarshalTCPInto(&h2, dg.Payload, src, dst)
	if (err1 == nil) != (err2 == nil) {
		return fmt.Errorf("tcp decode verdicts diverge: alloc=%v pooled=%v", err1, err2)
	}
	if err1 != nil {
		return nil // both reject: agreement
	}
	if !reflect.DeepEqual(*h1, h2) {
		return fmt.Errorf("tcp headers diverge: alloc=%+v pooled=%+v", *h1, h2)
	}
	if !bytes.Equal(p1, p2) {
		return fmt.Errorf("tcp payloads diverge (%d vs %d bytes)", len(p1), len(p2))
	}
	m1 := h1.Marshal(p1, src, dst)
	m2 := make([]byte, h2.WireLen(len(p2)))
	h2.MarshalTo(m2, p2, src, dst)
	if !bytes.Equal(m1, m2) {
		return fmt.Errorf("tcp encoders diverge on re-encode")
	}
	if !bytes.Equal(m1, dg.Payload) {
		return fmt.Errorf("tcp decode/encode round trip changed the wire bytes (%d vs %d)", len(m1), len(dg.Payload))
	}
	return nil
}

func checkSub(dg *network.Datagram) error {
	h1, p1, err1 := tcpwire.UnmarshalSub(dg.Payload)
	var h2 tcpwire.SubHeader
	p2, err2 := tcpwire.UnmarshalSubInto(&h2, dg.Payload)
	if (err1 == nil) != (err2 == nil) {
		return fmt.Errorf("subtcp decode verdicts diverge: alloc=%v pooled=%v", err1, err2)
	}
	if err1 != nil {
		return nil
	}
	if !reflect.DeepEqual(*h1, h2) {
		return fmt.Errorf("subtcp headers diverge: alloc=%+v pooled=%+v", *h1, h2)
	}
	if !bytes.Equal(p1, p2) {
		return fmt.Errorf("subtcp payloads diverge (%d vs %d bytes)", len(p1), len(p2))
	}
	m1 := h1.Marshal(p1)
	m2 := make([]byte, h2.WireLen(len(p2)))
	h2.MarshalTo(m2, p2)
	if !bytes.Equal(m1, m2) {
		return fmt.Errorf("subtcp encoders diverge on re-encode")
	}
	if !bytes.Equal(m1, dg.Payload) {
		return fmt.Errorf("subtcp decode/encode round trip changed the wire bytes (%d vs %d)", len(m1), len(dg.Payload))
	}
	return nil
}

// codecTracer is the bare-mode netsim.Tracer: it ignores causal
// tracking entirely, runs CheckFrame on every frame-carrying event,
// counts the frames it decoded and retains the first few
// disagreements. Attaching it is observational — it consumes no
// randomness and schedules nothing — so it cannot change packet
// outcomes.
type codecTracer struct {
	checked uint64
	issues  []string
}

const maxCodecIssues = 8

func (t *codecTracer) note(ev netsim.TraceEvent, err error) {
	if len(t.issues) < maxCodecIssues {
		t.issues = append(t.issues, fmt.Sprintf("at=%v node=%s kind=%s: %v", ev.At, ev.Node, ev.Kind, err))
	}
}

// Stamp implements netsim.Tracer.
func (t *codecTracer) Stamp([]byte) uint64 { return 0 }

// ID implements netsim.Tracer.
func (t *codecTracer) ID([]byte) uint64 { return 0 }

// Retire implements netsim.Tracer.
func (t *codecTracer) Retire([]byte) {}

// Emit implements netsim.Tracer.
func (t *codecTracer) Emit(ev netsim.TraceEvent, frame []byte) {
	if frame == nil || ev.Kind == "corrupt" {
		return // corrupted bits are the link's doing, not a codec's
	}
	decoded, err := CheckFrame(frame)
	if decoded {
		t.checked++
	}
	if err != nil {
		t.note(ev, err)
	}
}
