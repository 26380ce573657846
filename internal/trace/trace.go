// Package trace is the reproduction's tcpdump: it taps routers,
// decodes every wire packet down through the layers (network class →
// datagram → transport header, standard or sublayered), and renders
// one human-readable line per event with virtual timestamps.
//
// Decoded traces are the practical face of the paper's debugging
// claim: because each sublayer owns distinct bits, a trace line can
// attribute every field to its sublayer ("cm=[SYN isn=…] rd=[seq=…]
// osr=[win=…]"), and a misbehaving field points at one module.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
)

// Event is one observed packet.
type Event struct {
	At      netsim.Time `json:"at"`
	Node    string      `json:"node"`
	If      int         `json:"if"`
	Summary string      `json:"summary"`
	Len     int         `json:"len"`
}

// Recorder accumulates events up to a limit with ring-buffer
// semantics: once limit events are held, each new event silently
// evicts the oldest one. Nothing blocks and nothing fails — a long
// simulation simply retains its most recent window of traffic. The
// drop count is recoverable as Total() - len(Events()), and Total
// keeps counting past the window (it wraps only at 2^64 like any
// uint64, far beyond a simulation's reach).
type Recorder struct {
	sim    netsim.Backend
	events []Event
	oldest int // index in events of the oldest one, once limit are held
	limit  int
	total  uint64
}

// NewRecorder returns a recorder keeping at most limit events
// (default 1024).
func NewRecorder(sim netsim.Backend, limit int) *Recorder {
	if limit <= 0 {
		limit = 1024
	}
	return &Recorder{sim: sim, limit: limit}
}

// Attach taps a router; every received packet becomes an event.
func (r *Recorder) Attach(rt *network.Router) {
	name := rt.Addr().String()
	rt.Tap(func(ifi int, data []byte) {
		r.add(Event{
			At:      r.sim.Now(),
			Node:    name,
			If:      ifi,
			Summary: Summarize(data),
			Len:     len(data),
		})
	})
}

func (r *Recorder) add(e Event) {
	r.total++
	if len(r.events) == r.limit {
		r.events[r.oldest] = e
		r.oldest = (r.oldest + 1) % r.limit
		return
	}
	r.events = append(r.events, e)
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.oldest:]...)
	return append(out, r.events[:r.oldest]...)
}

// Total returns how many events were observed (including dropped).
func (r *Recorder) Total() uint64 { return r.total }

// Dropped returns how many events fell out of the ring buffer.
func (r *Recorder) Dropped() uint64 { return r.total - uint64(len(r.events)) }

// Dump renders the retained events, one line each.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		fmt.Fprintf(&b, "%12v %-4s if%d %4dB  %s\n", e.At, e.Node, e.If, e.Len, e.Summary)
	}
	return b.String()
}

// Summarize decodes one wire packet into a single line. It never
// fails: undecodable packets are summarized as such.
func Summarize(data []byte) string {
	if len(data) == 0 {
		return "empty"
	}
	switch data[0] {
	case 1: // hello (network wire class)
		return "HELLO " + helloSummary(data)
	case 2:
		return "ROUTING " + routingSummary(data)
	case 0:
		dg, err := network.UnmarshalDatagram(data)
		if err != nil {
			return "DATA (malformed)"
		}
		return datagramSummary(dg)
	default:
		return fmt.Sprintf("class=%d (unknown)", data[0])
	}
}

func helloSummary(data []byte) string {
	if len(data) < 4 {
		return "(short)"
	}
	return fmt.Sprintf("from n%d cost %d", uint16(data[1])<<8|uint16(data[2]), data[3])
}

func routingSummary(data []byte) string {
	if len(data) < 4 {
		return "(short)"
	}
	sender := uint16(data[1])<<8 | uint16(data[2])
	proto := "?"
	if len(data) > 3 {
		switch data[3] {
		case 1:
			proto = "distance-vector"
		case 2:
			proto = "link-state"
		}
	}
	return fmt.Sprintf("%s from n%d (%dB)", proto, sender, len(data)-3)
}

func datagramSummary(dg *network.Datagram) string {
	head := fmt.Sprintf("%v→%v ttl=%d", dg.Src, dg.Dst, dg.TTL)
	if dg.ECN {
		head += " [ECN]"
	}
	switch dg.Proto {
	case network.ProtoTCP:
		h, payload, err := tcpwire.UnmarshalTCP(dg.Payload, uint16(dg.Src), uint16(dg.Dst))
		if err != nil {
			return head + " TCP (bad checksum or malformed)"
		}
		return fmt.Sprintf("%s TCP %d→%d [%s] seq=%d ack=%d win=%d len=%d",
			head, h.SrcPort, h.DstPort, tcpwire.FlagString(h.Flags),
			h.Seq, h.Ack, h.Window, len(payload))
	case network.ProtoSubTCP:
		h, payload, err := tcpwire.UnmarshalSub(dg.Payload)
		if err != nil {
			return head + " SUBTCP (malformed)"
		}
		return fmt.Sprintf("%s SUBTCP dm=[%d→%d] cm=[%s isn=%d] rd=[seq=%d ack=%d%s sack=%d] osr=[win=%d%s] len=%d",
			head, h.DM.SrcPort, h.DM.DstPort,
			cmFlags(h), h.CM.ISN,
			h.RD.Seq, h.RD.Ack, ackMark(h.RD.AckValid), len(h.RD.SACK),
			h.OSR.Window, ecnMark(h), len(payload))
	case network.ProtoUDP:
		return fmt.Sprintf("%s UDP len=%d", head, len(dg.Payload))
	default:
		return fmt.Sprintf("%s proto=%d len=%d", head, dg.Proto, len(dg.Payload))
	}
}

func cmFlags(h *tcpwire.SubHeader) string {
	var f []string
	if h.CM.SYN {
		f = append(f, "SYN")
	}
	if h.CM.FIN {
		f = append(f, "FIN")
	}
	if h.CM.RST {
		f = append(f, "RST")
	}
	if len(f) == 0 {
		return "-"
	}
	return strings.Join(f, "|")
}

func ackMark(v bool) string {
	if v {
		return "*"
	}
	return ""
}

func ecnMark(h *tcpwire.SubHeader) string {
	out := ""
	if h.OSR.ECE {
		out += " ECE"
	}
	if h.OSR.CWR {
		out += " CWR"
	}
	return out
}
