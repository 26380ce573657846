package sublayered

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/verify"
)

// fig5 is Fig. 5 as this package draws it, declared once: every call
// from one part of a connection to another — the four sublayers, the
// Conn that wires them and carries the application's API, and the
// Stack that builds them — with why it exists and the Crossings
// counters that count traffic over it. DM's two halves (DM per host,
// dmConn per connection) and CM's three types (HandshakeCM, TimerCM and
// the cmCore both embed) are read as separate callers.
// TestNarrowInterfaces fails on a call the table lacks and on an entry
// nothing calls.
var fig5 = []struct{ caller, callee, counters, why string }{
	{"Conn", "OSR.write", "app_to_osr app_bytes", "application bytes enter at the top"},
	{"Conn", "ConnManager.closeWrite", "", "the application's close is sequenced by CM"},
	{"Conn", "ConnManager.state", "", "State reports CM's FSM"},
	{"Conn", "ConnManager.cause", "", "Err reports the error stop recorded"},
	{"Conn", "ConnManager.isDead", "", "the API and the receive path stop once the state is CLOSED"},
	{"Conn", "ConnManager.onSegment", "", "an arriving segment's CM view goes to CM first"},
	{"Conn", "RD.OnSegment", "", "then its RD section to RD"},
	{"Conn", "OSR.onPeerHeader", "", "then its OSR section (window, ECN echo) to OSR"},
	{"Conn", "OSR.noteECNMark", "", "a congestion-experienced mark is OSR's to echo"},
	{"Conn", "OSR.pump", "", "data written before the open leaves once CM establishes"},
	{"Conn", "ConnManager.stop", "", "every end sets CLOSED and its error here, once"},
	{"Conn", "RD.stop", "", "teardown cancels RD's timers and frees its retransmission copies"},
	{"Conn", "OSR.stop", "", "teardown cancels OSR's timers and frees its receive storage"},
	{"Conn", "RD.una", "", "an abort is traced at the oldest unacknowledged sequence number"},
	{"Conn", "dmConn.close", "", "teardown leaves DM's table"},
	{"Conn", "RD.NextSeq", "", "the application's abort sends its RST at RD's next sequence number"},
	{"Conn", "dmConn.reset", "", "the RST itself"},
	{"Conn", "RD.contract", "", "contracts check each sublayer's invariants after a segment"},
	{"Conn", "OSR.contract", "", "contracts check each sublayer's invariants after a segment"},
	{"Conn", "instrumentedCM.each", "", "a manager that has instruments lists them with its connection's"},

	{"DM", "Conn.onSegment", "from_dm", "a demultiplexed segment goes up to its connection"},
	{"DM", "Stack.admits", "", "the manager's scheme vets a first segment to a listener before anything is built"},
	{"DM", "Stack.newConn", "", "an admitted one builds a connection (passive open)"},
	{"DM", "ConnManager.open", "", "and opens it passively"},

	{"dmConn", "ConnManager.section", "", "DM composes the Fig. 6 header from each sublayer's section"},
	{"dmConn", "RD.Section", "", "DM composes the Fig. 6 header from each sublayer's section"},
	{"dmConn", "OSR.Section", "", "DM composes the Fig. 6 header from each sublayer's section"},
	{"dmConn", "DM.transmit", "", "a connection's half of DM sends through the host's"},
	{"dmConn", "DM.remove", "", "a closed connection leaves the host's table"},

	{"HandshakeCM", "ISNGenerator.ISN", "", "handshake ISNs come from the host's generator"},
	{"HandshakeCM", "dmConn.flow", "", "RFC 1948 draws an ISN per flow"},
	{"HandshakeCM", "Conn.now", "", "and at a time"},
	{"HandshakeCM", "dmConn.xmitCM", "to_dm", "SYN and SYN-ACK"},
	{"HandshakeCM", "RD.Established", "cm_to_rd", "the ISN pair: CM's service to RD"},
	{"HandshakeCM", "RD.AckNow", "", "the ACK that completes the handshake, or re-acks a repeated SYN-ACK"},
	{"HandshakeCM", "Conn.onEstablished", "", "the open reaches the application"},

	{"TimerCM", "dmConn.flow", "", "Watson incarnations are per flow, and the ISN mixes in the local port"},
	{"TimerCM", "Conn.now", "", "the ISN is a clock"},
	{"TimerCM", "RD.Established", "cm_to_rd", "the ISN pair: CM's service to RD"},
	{"TimerCM", "RD.SuppressAcksUntilPeerISN", "", "an active open does not know the peer's ISN yet"},
	{"TimerCM", "RD.SetPeerISN", "", "and learns it from the first segment"},
	{"TimerCM", "Conn.onEstablished", "", "the open reaches the application"},

	{"cmCore", "dmConn.xmitCM", "to_dm", "FIN"},
	{"cmCore", "RD.SetRemoteFin", "cm_to_rd", "where the peer's stream ends"},
	{"cmCore", "RD.rcvOffset", "", "that end as a stream offset"},
	{"cmCore", "OSR.setStreamEnd", "", "OSR signals EOF once the stream is whole up to it"},
	{"cmCore", "RD.AckNow", "", "a FIN, first or repeated, is acknowledged at once"},
	{"cmCore", "OSR.closeWrite", "", "OSR asks for the FIN once what was written is segmented"},
	{"cmCore", "Conn.destroy", "", "CM's own ends: an orderly close, a peer RST or a SYN/FIN timeout"},

	{"RD", "OSR.deliver", "rd_to_osr_dat", "new bytes, exactly once, possibly out of order"},
	{"RD", "OSR.onAcked", "rd_to_osr_ack", "acknowledged bytes advance OSR's windows"},
	{"RD", "OSR.onLoss", "rd_to_osr_los", "timeouts and fast retransmits, summarized"},
	{"RD", "ConnManager.localFinSeq", "", "our FIN bounds an acceptable ack and is no stream byte"},
	{"RD", "ConnManager.isDead", "", "RD's timers and acks do nothing once the state is CLOSED"},
	{"RD", "dmConn.xmitData", "to_dm", "data, retransmissions and acks"},
	{"RD", "dmConn.trace", "", "RD's spans carry DM's flow"},
	{"RD", "Conn.destroy", "", "the user timeout aborts the connection"},
	{"RD", "Conn.now", "", "RTT timing"},

	{"OSR", "RD.Send", "osr_to_rd osr_bytes", "a segment is ready"},
	{"OSR", "RD.isEstablished", "", "segments are ready only once CM delivered the ISNs"},
	{"OSR", "ConnManager.streamFinished", "", "the stream is segmented: CM may place its FIN"},
	{"OSR", "ConnManager.peerStreamComplete", "", "the peer's stream is whole: CM runs the close transition"},
	{"OSR", "ConnManager.isDead", "", "OSR's timers and delivery stop once the state is CLOSED"},
	{"OSR", "Conn.now", "", "pacing and the controller's clock"},

	{"Stack", "RD.init", "", "a connection's sublayers are built in place"},
	{"Stack", "OSR.init", "", "a connection's sublayers are built in place"},
	{"Stack", "instrumentedCM.leaves", "", "a manager that has instruments names them"},
	{"Stack", "DM.insert", "", "Dial enters the connection in DM's table"},
	{"Stack", "ConnManager.open", "", "and opens it actively"},
	{"Stack", "Conn.Abort", "", "Close aborts every open connection"},
}

// load reads the package with the named types as its sublayers.
func load(t *testing.T, sublayers []string) *verify.Source {
	t.Helper()
	src, err := verify.Load(transport.Sources, "sublayered", verify.Scope{Sublayers: sublayers})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestNarrowInterfaces is T2's "narrow interfaces" litmus, read from
// the source: every call from one part of a connection to a method of
// another, or to an interface method, is an edge fig5 declares, and
// every Crossings counter sits on one. The package is read twice, as
// TestDisjointState does: with HandshakeCM and TimerCM as callers, then
// with cmCore, the half both embed.
func TestNarrowInterfaces(t *testing.T) {
	sites := make(map[string][]string) // "Caller Type.method" → file:line
	for _, cm := range [][]string{{"HandshakeCM", "TimerCM"}, {"cmCore"}} {
		for _, c := range load(t, slices.Concat([]string{"Conn", "Stack", "DM", "dmConn", "RD", "OSR"}, cm)).Calls() {
			site, edge, _ := strings.Cut(c, " ")
			if !slices.Contains(sites[edge], site) {
				sites[edge] = append(sites[edge], site)
			}
		}
	}
	declared := make(map[string]bool)
	counted := make(map[string]bool)
	for _, e := range fig5 {
		edge := e.caller + " " + e.callee
		if declared[edge] {
			t.Errorf("fig5 declares %s twice", edge)
		}
		declared[edge] = true
		if sites[edge] == nil {
			t.Errorf("fig5 declares %s, which nothing calls", edge)
		}
		for _, n := range strings.Fields(e.counters) {
			counted[n] = true
		}
	}
	var undeclared []string
	for edge, at := range sites {
		if !declared[edge] {
			for _, site := range at {
				undeclared = append(undeclared, site+" "+edge)
			}
		}
	}
	sort.Strings(undeclared)
	for _, u := range undeclared {
		t.Errorf("%s: call not declared in fig5", u)
	}
	new(Crossings).each(func(name string, _ metrics.Instrument) {
		if !counted[name] {
			t.Errorf("Crossings counter %s sits on no declared edge", name)
		}
		delete(counted, name)
	})
	for n := range counted {
		t.Errorf("fig5 names %s, which is no Crossings counter", n)
	}
}

// TestDisjointState is T3's "disjoint state" litmus, read from the
// source: no method of one sublayer type (DM, dmConn, HandshakeCM,
// TimerCM, RD, OSR) reads or writes a field of another. A sublayer
// reaches its neighbours through their methods only, along fig5's
// edges. Conn is the wiring between them, not a sublayer; it holds
// only navigation, instruments and callbacks. The two connection
// managers share cmCore, whose methods are neither's, so a second
// reading holds cmCore to the same rule beside DM, RD and OSR.
func TestDisjointState(t *testing.T) {
	for _, cm := range [][]string{{"HandshakeCM", "TimerCM"}, {"cmCore"}} {
		for _, v := range load(t, slices.Concat([]string{"DM", "dmConn", "RD", "OSR"}, cm)).CrossSublayer() {
			t.Errorf("%s: field of another sublayer", v)
		}
	}
}
