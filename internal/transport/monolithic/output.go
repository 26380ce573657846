package monolithic

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/ccontrol"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
)

// Write queues application bytes; returns how many were accepted.
func (p *PCB) Write(b []byte) int {
	if p.state == transport.StateClosed || p.closed {
		return 0
	}
	n := p.sndBuf.Write(b)
	p.tcpOutput()
	p.checkInvariants(p.stack.cfg.Contracts)
	return n
}

// Read copies up to len(b) in-order bytes into b; open=false once the
// peer's stream has ended and everything was read. It ends the loan of
// the slice an earlier ReadAll returned.
func (p *PCB) Read(b []byte) (n int, open bool) {
	n = p.read.Read(b)
	return n, !p.EOF()
}

// ReadAll drains everything pending without copying it. The slice is
// borrowed: it is valid until the next Read or ReadAll on this PCB,
// after which its storage is filled again, so a caller that keeps the
// bytes copies them first (seg.ReadBuffer).
func (p *PCB) ReadAll() []byte { return p.read.ReadAll() }

// EOF reports end of the peer's stream, fully drained.
func (p *PCB) EOF() bool { return p.eof && p.read.Len() == 0 }

// Close ends the outgoing stream; the FIN goes out after queued data.
func (p *PCB) Close() {
	if p.state == transport.StateClosed || p.closed {
		return
	}
	p.closed = true
	p.tcpOutput()
}

// Abort sends a RST and kills the PCB.
func (p *PCB) Abort() {
	if p.state == transport.StateClosed {
		return
	}
	p.sendFlags(tcpwire.FlagRST|tcpwire.FlagACK, p.sndNxt, p.rcvNxt)
	p.kill(transport.ErrReset)
}

// tcpOutput transmits whatever the windows allow: data segments, then
// the FIN once everything is out — lwIP's tcp_output(). Congestion,
// flow control and teardown state all gate one loop.
func (p *PCB) tcpOutput() {
	s := p.stack
	if p.state != transport.StateEstablished && p.state != transport.StateCloseWait &&
		p.state != transport.StateFinWait1 && p.state != transport.StateClosing && p.state != transport.StateLastAck {
		return
	}
	for {
		acked := p.ackedOffset()
		inflight := int(p.nextSend - acked)
		wnd := p.cc.Window()
		if p.sndWnd < wnd {
			wnd = p.sndWnd
		}
		room := wnd - inflight
		avail := p.sndBuf.End() - p.nextSend
		if avail == 0 {
			break
		}
		if room <= 0 {
			p.armPersist()
			break
		}
		n := transport.MSS
		if uint64(n) > avail {
			n = int(avail)
		}
		if n > room {
			n = room
		}
		data := p.sndBuf.View(p.nextSend, n)
		sq := p.iss.Add(1).Add(int(uint32(p.nextSend)))
		p.nextSend += uint64(n)
		if sq.Add(n).Leq(p.sndNxt) {
			s.m.retransmits.Inc()
			p.trace("rexmit", "", 0, uint32(sq), n)
		} else {
			p.trace("send", "", 0, uint32(sq), n)
			p.sndNxt = sq.Add(n)
			if !p.timing {
				p.timing = true
				p.timedEnd = sq.Add(n)
				p.timedAt = s.sim.Now()
			}
		}
		p.sendSegment(tcpwire.FlagACK, sq, p.rcvNxt, data)
		p.armRexmit()
	}
	// FIN once all data is out.
	if p.closed && !p.finSent && p.nextSend == p.sndBuf.End() {
		p.finSent = true
		p.finSeq = p.iss.Add(1).Add(int(uint32(p.nextSend)))
		p.sndNxt = p.finSeq.Add(1)
		switch p.state {
		case transport.StateEstablished:
			p.state = transport.StateFinWait1
		case transport.StateCloseWait:
			p.state = transport.StateLastAck
		}
		p.sendFlags(tcpwire.FlagFIN|tcpwire.FlagACK, p.finSeq, p.rcvNxt)
		p.armRexmit()
	}
}

// rollbackAndRetransmit implements go-back-N recovery: rewind the send
// pointer to the first unacknowledged byte and let tcpOutput resend.
func (p *PCB) rollbackAndRetransmit() {
	p.nextSend = p.ackedOffset()
	// A FIN awaiting ack must be retransmitted too.
	if p.finSent && !p.finAcked && p.nextSend == p.sndBuf.End() {
		p.sendFlags(tcpwire.FlagFIN|tcpwire.FlagACK, p.finSeq, p.rcvNxt)
		p.armRexmit()
		return
	}
	p.tcpOutput()
}

// onRexmitTimer is the retransmission timeout — lwIP's slow timer path.
func (p *PCB) onRexmitTimer() {
	s := p.stack
	switch p.state {
	case transport.StateClosed:
		return
	case transport.StateSynSent:
		p.retryOrDie(func() { p.sendFlags(tcpwire.FlagSYN, p.iss, 0) })
		return
	case transport.StateSynRcvd:
		p.retryOrDie(func() { p.sendFlags(tcpwire.FlagSYN|tcpwire.FlagACK, p.iss, p.rcvNxt) })
		return
	}
	if p.inflight() == 0 && !(p.finSent && !p.finAcked) {
		return
	}
	s.m.timeouts.Inc()
	p.nrexmit++
	p.trace("rto", "", 0, uint32(p.sndUna), p.nrexmit)
	if p.nrexmit > transport.MaxRexmit {
		s.m.aborts.Inc()
		p.kill(transport.ErrTimeout)
		return
	}
	p.rtt.Backoff()
	p.timing = false // Karn
	p.cc.OnLoss(ccontrol.LossEvent{Kind: ccontrol.LossTimeout})
	p.rollbackAndRetransmit()
}

func (p *PCB) retryOrDie(resend func()) {
	p.nrexmit++
	if p.nrexmit > transport.MaxRexmit {
		p.stack.m.aborts.Inc()
		p.kill(transport.ErrTimeout)
		return
	}
	p.rtt.Backoff()
	resend()
	p.armRexmit()
}

// inflight returns unacknowledged payload bytes.
func (p *PCB) inflight() int {
	return int(p.nextSend - p.ackedOffset())
}

// armRexmit (re)arms the retransmission timer when something is
// outstanding.
func (p *PCB) armRexmit() {
	p.rexmit.Stop()
	if p.state == transport.StateSynSent || p.state == transport.StateSynRcvd ||
		p.inflight() > 0 || p.finSent && !p.finAcked {
		p.rexmit = p.stack.sim.ScheduleTimer(p.rtt.RTO(), p.rexmitFn)
	}
}

func (p *PCB) stopRexmit() {
	p.rexmit.Stop()
	p.nrexmit = 0
}

// armPersist probes a zero window so a lost window update cannot
// deadlock the connection.
func (p *PCB) armPersist() {
	if p.sndWnd > 0 || p.inflight() > 0 {
		return
	}
	p.stack.sim.ScheduleTimer(500*time.Millisecond, p.persistFn)
}

// onPersistTimer fires the zero-window probe.
func (p *PCB) onPersistTimer() {
	if p.state == transport.StateClosed || p.sndWnd > 0 {
		p.tcpOutput()
		return
	}
	if p.sndBuf.End() > p.nextSend {
		data := p.sndBuf.View(p.nextSend, 1)
		sq := p.iss.Add(1).Add(int(uint32(p.nextSend)))
		p.nextSend++
		if p.sndNxt.Less(sq.Add(1)) {
			p.sndNxt = sq.Add(1)
		}
		p.sendSegment(tcpwire.FlagACK, sq, p.rcvNxt, data)
		p.armRexmit()
	}
	p.armPersist()
}

// enterTimeWait starts the 2MSL timer.
func (p *PCB) enterTimeWait() {
	p.state = transport.StateTimeWait
	p.stack.sim.ScheduleTimer(transport.TimeWait, func() {
		if p.state == transport.StateTimeWait {
			p.kill(nil)
		}
	})
}

// sendAck emits a bare acknowledgement.
func (p *PCB) sendAck() {
	p.sendFlags(tcpwire.FlagACK, p.sndNxt, p.rcvNxt)
}

// sendFlags emits a payload-free segment.
func (p *PCB) sendFlags(flags uint8, sq, ack seg.Seq) {
	p.sendSegment(flags, sq, ack, nil)
}

// sendSegment marshals and transmits one RFC 793 segment. The header
// is composed in the stack's scratch txHdr and marshaled once, with
// network headroom, into a pooled buffer the router takes ownership of.
func (p *PCB) sendSegment(flags uint8, sq, ack seg.Seq, payload []byte) {
	s := p.stack
	s.txHdr = tcpwire.TCPHeader{
		SrcPort: p.id.localPort,
		DstPort: p.id.remotePort,
		Seq:     uint32(sq),
		Flags:   flags,
		Window:  p.advertisedWindow(),
		WScale:  -1,
	}
	h := &s.txHdr
	if flags&tcpwire.FlagACK != 0 {
		h.Ack = uint32(ack)
	}
	if flags&tcpwire.FlagSYN != 0 {
		h.MSS = transport.MSS
	}
	buf := bufpool.Get(network.Headroom + h.WireLen(len(payload)))
	h.MarshalTo(buf[network.Headroom:], payload, uint16(s.router.Addr()), uint16(p.id.remoteAddr))
	if t := s.sim.Tracer(); t != nil {
		id := t.Stamp(buf)
		p.lastXmitID = id
		t.Emit(netsim.TraceEvent{
			At: s.sim.Now(), ID: id, Flow: p.flow(), Seq: uint32(sq), Len: len(payload),
			Node: s.traceName, Layer: netsim.LayerTransport, Kind: "xmit",
		}, nil)
	}
	s.m.segmentsOut.Inc()
	_ = s.router.SendOwned(p.id.remoteAddr, network.ProtoTCP, buf, false)
}

// advertisedWindow is free receive buffer minus unread bytes.
func (p *PCB) advertisedWindow() uint16 {
	free := p.reasm.Free() - p.read.Len()
	if free < 0 {
		free = 0
	}
	if free > 65535 {
		free = 65535
	}
	return uint16(free)
}

// kill tears the PCB down.
func (p *PCB) kill(err error) {
	if p.state == transport.StateClosed {
		return
	}
	p.state, p.err = transport.StateClosed, err
	if err != nil {
		verdict := netsim.VerdictReset
		if err == transport.ErrTimeout {
			verdict = netsim.VerdictTimeout
		}
		// The abort names the newest transmitted wire buffer: its causal
		// chain is what the flight recorder dumps.
		p.trace("abort", verdict, p.lastXmitID, uint32(p.sndUna), 0)
	}
	p.stopRexmit()
	p.reasm.Release()
	p.read.Finish()
	delete(p.stack.pcbs, p.id)
	p.stack.ports.Unbind(p.id.localPort)
	if p.OnClosed != nil {
		p.OnClosed(err)
	}
}
