// Package sublayered is the paper's TCP: the transport decomposed into
// the four §3 sublayers, each owning disjoint header bits and disjoint
// state, composed only through the narrow interfaces of Fig. 5. Top to
// bottom:
//
//   - OSR (osr.go) — Ordering, Segmenting and Rate control: breaks the
//     application byte stream into segments, pastes out-of-order
//     deliveries back together, and hides rate control (the pluggable
//     congestion policies live in cc.go). OSR's window is deliberately
//     distinct from RD's.
//   - RD (rd.go) — Reliable Delivery: sequence numbers, cumulative
//     acks, retransmission and its timers; summarizes loss signals
//     (timeout vs fast-retransmit) upward to OSR.
//   - CM (cm.go, timercm.go, isn.go) — Connection Management:
//     establishing a pair of initial sequence numbers and tearing the
//     connection down, with its own bootstrap reliability for SYN/FIN.
//     Swappable by name (Config.CM, E8): the three-way handshake with
//     crypto or clock ISNs, or the Watson timer-based scheme. Both
//     embed cmCore, so they differ only in how a connection opens.
//   - DM (dm.go) — Demultiplexing: "essentially UDP" — ports, binding,
//     listener dispatch; the bottom sublayer everything else rides on.
//     Its per-connection half (dmConn) holds the flow and composes
//     every outgoing header from the sublayers' sections.
//
// Conn (conn.go) is only the wiring harness plus the byte-stream API;
// it holds no protocol state of its own. The edges between the parts
// are declared once, in fig5_test.go, and TestNarrowInterfaces checks
// the code against them. contracts.go makes each
// sublayer's interface contract runtime-checkable — the paper's
// debugging claim, exercised by the E10 chaos soak.
package sublayered
