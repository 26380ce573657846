// Package streams is the paper's §5 forward pointer made concrete:
// "Of particular interest to us is QUIC ... The transport layer can
// likely be further sublayered into a stream layer and a connection
// layer." It is also the SST/Minion use case from §6 — "how do I
// sublayer TCP to avoid HOL blocking?" — answered by adding a sublayer
// rather than a new protocol.
//
// A Mux sits ON TOP of any transport endpoint (sublayered or
// monolithic, via the harness interface): it carves the single ordered
// byte stream into self-delimiting frames, each tagged with a stream
// id, and reassembles per-stream byte sequences at the far end. By the
// paper's tests it is a genuine sublayer: it improves the service below
// (one byte stream → many) by talking to a peer Mux (T1); it touches
// the layer below only through Write/Read (T2); and its frame headers
// are invisible to the transport beneath it (T3). Like all sublayers
// it borrows the enclosing layer's namespace: streams are numbered
// within the connection, not globally.
//
// Note what a sublayer over TCP can and cannot fix: application
// framing and per-stream demultiplexing work perfectly, but because
// the layer below delivers bytes in order, loss of one segment still
// delays all streams (transport-level HOL). Removing that requires the
// stream sublayer to sit below OSR's ordering, which is exactly the
// QUIC design the paper gestures at — documented here, measured in the
// tests.
package streams

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// frame header: streamID(4) flags(1) length(2)
const frameHeader = 7

// frame flags.
const (
	flagFIN = 1 << 0 // sender finished this stream
)

// maxFrame bounds one frame's payload.
const maxFrame = 16 * 1024

// Transport is the byte-stream service below the mux — satisfied by
// both TCPs' connections (any transport.Conn).
type Transport interface {
	Write(p []byte) int
	ReadAll() []byte
}

// ErrStreamClosed reports a write to a finished stream.
var ErrStreamClosed = errors.New("streams: stream closed")

// Stream is one multiplexed byte stream.
type Stream struct {
	mux    *Mux
	id     uint32
	recv   []byte
	eof    bool
	closed bool // local write side finished
	// OnReadable fires when new bytes or EOF arrive.
	OnReadable func()
}

// ID returns the stream's identifier within the connection.
func (s *Stream) ID() uint32 { return s.id }

// Write queues p for the peer; the mux frames and forwards it through
// the transport below. It returns an error after Close.
func (s *Stream) Write(p []byte) error {
	if s.closed {
		return ErrStreamClosed
	}
	return s.mux.send(s.id, 0, p)
}

// Close ends the local write side of the stream.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.mux.send(s.id, flagFIN, nil)
}

// ReadAll drains the bytes received so far.
func (s *Stream) ReadAll() []byte {
	out := s.recv
	s.recv = nil
	return out
}

// EOF reports the peer finished the stream and all bytes were read.
func (s *Stream) EOF() bool { return s.eof && len(s.recv) == 0 }

// Mux multiplexes streams over one ordered byte stream.
type Mux struct {
	tr      Transport
	streams map[uint32]*Stream
	nextID  uint32
	// partial frame assembly from the byte stream below.
	buf []byte
	// OnStream fires when the peer opens a stream we have not seen.
	OnStream func(*Stream)
	// sendQ holds frames the transport below could not fully accept.
	sendQ []byte
	m     muxMetrics
}

// muxMetrics instruments multiplexing work.
type muxMetrics struct {
	framesSent     metrics.Counter
	framesReceived metrics.Counter
	bytesSent      metrics.Counter
	bytesReceived  metrics.Counter
	malformed      metrics.Counter
}

func (m *muxMetrics) each(f func(string, metrics.Instrument)) {
	f("frames_sent", &m.framesSent)
	f("frames_received", &m.framesReceived)
	f("bytes_sent", &m.bytesSent)
	f("bytes_received", &m.bytesReceived)
	f("malformed", &m.malformed)
}

// NewMux wraps a transport endpoint. Odd/even id spaces avoid
// collisions: pass initiator=true on exactly one side.
func NewMux(tr Transport, initiator bool) *Mux {
	m := &Mux{tr: tr, streams: make(map[uint32]*Stream)}
	if initiator {
		m.nextID = 1 // initiator opens odd ids
	} else {
		m.nextID = 2
	}
	return m
}

// Open creates a new outgoing stream.
func (m *Mux) Open() *Stream {
	s := &Stream{mux: m, id: m.nextID}
	m.nextID += 2
	m.streams[s.id] = s
	return s
}

// Stats returns a snapshot of the mux counters.
func (m *Mux) Stats() metrics.View { return metrics.ViewOf(m.m.each) }

// BindMetrics adopts the mux counters into sc (metrics.Instrumented).
func (m *Mux) BindMetrics(sc *metrics.Scope) { m.m.each(sc.Register) }

// send frames payload for stream id and pushes it below, honouring
// maxFrame and the transport's backpressure.
func (m *Mux) send(id uint32, flags byte, payload []byte) error {
	for first := true; first || len(payload) > 0; first = false {
		n := len(payload)
		if n > maxFrame {
			n = maxFrame
		}
		hdr := make([]byte, frameHeader, frameHeader+n)
		binary.BigEndian.PutUint32(hdr[0:4], id)
		hdr[4] = flags
		binary.BigEndian.PutUint16(hdr[5:7], uint16(n))
		frame := append(hdr, payload[:n]...)
		payload = payload[n:]
		m.m.framesSent.Inc()
		m.m.bytesSent.Add(uint64(n))
		m.sendQ = append(m.sendQ, frame...)
	}
	m.Flush()
	return nil
}

// Flush pushes queued frames into the transport below; call it again
// from the transport's writable callback when backpressured.
func (m *Mux) Flush() {
	for len(m.sendQ) > 0 {
		n := m.tr.Write(m.sendQ)
		if n == 0 {
			return // transport send buffer full; retry on writable
		}
		m.sendQ = m.sendQ[n:]
	}
}

// Pump drains the transport below and dispatches frames; call it from
// the transport's readable callback.
func (m *Mux) Pump() error {
	m.buf = append(m.buf, m.tr.ReadAll()...)
	for {
		if len(m.buf) < frameHeader {
			return nil
		}
		id := binary.BigEndian.Uint32(m.buf[0:4])
		flags := m.buf[4]
		n := int(binary.BigEndian.Uint16(m.buf[5:7]))
		if n > maxFrame {
			m.m.malformed.Inc()
			return fmt.Errorf("streams: frame length %d exceeds maximum", n)
		}
		if len(m.buf) < frameHeader+n {
			return nil // wait for the rest of the frame
		}
		payload := m.buf[frameHeader : frameHeader+n]
		m.buf = m.buf[frameHeader+n:]
		m.dispatch(id, flags, payload)
	}
}

func (m *Mux) dispatch(id uint32, flags byte, payload []byte) {
	m.m.framesReceived.Inc()
	m.m.bytesReceived.Add(uint64(len(payload)))
	s, ok := m.streams[id]
	if !ok {
		s = &Stream{mux: m, id: id}
		m.streams[id] = s
		if m.OnStream != nil {
			m.OnStream(s)
		}
	}
	if len(payload) > 0 {
		s.recv = append(s.recv, payload...)
	}
	if flags&flagFIN != 0 {
		s.eof = true
	}
	if (len(payload) > 0 || s.eof) && s.OnReadable != nil {
		s.OnReadable()
	}
}
