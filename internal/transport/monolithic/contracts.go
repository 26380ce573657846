package monolithic

import (
	"repro/internal/transport"
	"repro/internal/verify"
)

// checkInvariants is the monolithic counterpart of the sublayered
// stack's per-sublayer contracts — and the contrast the paper draws.
// With one shared PCB there is one entangled invariant set: every
// predicate below mentions fields written by several handlers, so a
// violation says "the PCB is inconsistent" without naming a module.
// (The sublayered contracts in internal/transport/sublayered localize
// the same class of bug to rd/, osr/ or cm/.)
func (p *PCB) checkInvariants(ck *verify.Checker) {
	if ck == nil || p.state <= transport.StateSynSent {
		return // no checker, or not synchronized yet (or any more)
	}
	ck.Check(p.sndUna.Leq(p.sndNxt), "pcb/seq-ordered",
		"snd_una %d beyond snd_nxt %d", p.sndUna, p.sndNxt)
	ck.Check(p.nextSend >= p.ackedOffset(), "pcb/send-pointer",
		"next_send %d behind acked offset %d", p.nextSend, p.ackedOffset())
	ck.Check(p.nextSend <= p.sndBuf.End(), "pcb/send-within-buffer",
		"next_send %d beyond buffer end %d", p.nextSend, p.sndBuf.End())
	ck.Check(p.cc.Window() > 0, "pcb/cc-window-positive", "cc window = %d", p.cc.Window())
	if p.finSent {
		ck.Check(p.closed, "pcb/fin-implies-closed", "FIN sent but not closed")
	}
	if p.rcvdFin {
		ck.Check(p.reasm.Next() <= p.finOffset, "pcb/fin-bound",
			"reassembled %d beyond peer FIN at %d", p.reasm.Next(), p.finOffset)
	}
}
