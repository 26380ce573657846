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

// tcpInput is the entry point from the network layer: checksum, demux,
// passive-open, stray handling — the outer shell of lwIP's tcp_input().
func (s *Stack) tcpInput(dg *network.Datagram) {
	s.m.segmentsIn.Inc()
	h := &s.rxHdr
	payload, err := tcpwire.UnmarshalTCPInto(h, dg.Payload, uint16(dg.Src), uint16(dg.Dst))
	if err != nil {
		s.m.checksumErrors.Inc()
		return
	}
	id := connID{remoteAddr: dg.Src, remotePort: h.SrcPort, localPort: h.DstPort}
	if p, ok := s.pcbs[id]; ok {
		s.tcpProcess(p, h, payload)
		return
	}
	// Passive open?
	if h.Flags&tcpwire.FlagSYN != 0 && h.Flags&tcpwire.FlagACK == 0 {
		if l, ok := s.listeners[h.DstPort]; ok {
			p := s.newPCB(id)
			s.insert(p)
			p.state = transport.StateSynRcvd
			p.irs = seg.Seq(h.Seq)
			p.rcvNxt = p.irs.Add(1)
			p.iss = seg.Seq(uint32(int64(s.sim.Now())/4000) ^ uint32(id.remotePort))
			p.sndUna = p.iss
			p.sndNxt = p.iss.Add(1)
			p.sndWnd = int(h.Window)
			if l.OnAccept != nil {
				l.OnAccept(p)
				if p.state == transport.StateClosed {
					return // the application aborted it from OnAccept
				}
			}
			p.sendFlags(tcpwire.FlagSYN|tcpwire.FlagACK, p.iss, p.rcvNxt)
			p.armRexmit()
			return
		}
	}
	// Stray segment: answer with RST (unless it is itself a RST).
	if h.Flags&tcpwire.FlagRST == 0 {
		s.m.rstsSent.Inc()
		s.txHdr = tcpwire.TCPHeader{
			SrcPort: h.DstPort, DstPort: h.SrcPort,
			Seq: h.Ack, Ack: h.Seq + uint32(len(payload)),
			Flags: tcpwire.FlagRST | tcpwire.FlagACK, WScale: -1,
		}
		rst := &s.txHdr
		buf := bufpool.Get(network.Headroom + rst.WireLen(0))
		rst.MarshalTo(buf[network.Headroom:], nil, uint16(s.router.Addr()), uint16(dg.Src))
		if t := s.sim.Tracer(); t != nil {
			t.Stamp(buf)
		}
		s.m.segmentsOut.Inc()
		_ = s.router.SendOwned(dg.Src, network.ProtoTCP, buf, false)
	}
}

// tcpProcess runs the connection state machine — the middle of lwIP's
// input path. Handshake states are handled here; established-family
// states fall through to tcpReceive.
func (s *Stack) tcpProcess(p *PCB, h *tcpwire.TCPHeader, payload []byte) {
	if h.Flags&tcpwire.FlagRST != 0 {
		p.kill(p.state.ResetErr())
		return
	}
	switch p.state {
	case transport.StateSynSent:
		if h.Flags&tcpwire.FlagSYN != 0 && h.Flags&tcpwire.FlagACK != 0 &&
			seg.Seq(h.Ack) == p.iss.Add(1) {
			p.irs = seg.Seq(h.Seq)
			p.rcvNxt = p.irs.Add(1)
			p.sndUna = seg.Seq(h.Ack)
			p.sndWnd = int(h.Window)
			p.state = transport.StateEstablished
			p.stopRexmit()
			p.sendAck()
			if p.OnConnected != nil {
				p.OnConnected()
			}
			p.tcpOutput()
		}
		return
	case transport.StateSynRcvd:
		if h.Flags&tcpwire.FlagSYN != 0 && h.Flags&tcpwire.FlagACK == 0 {
			// Duplicate SYN: our SYN-ACK was lost.
			p.sendFlags(tcpwire.FlagSYN|tcpwire.FlagACK, p.iss, p.rcvNxt)
			return
		}
		if h.Flags&tcpwire.FlagACK != 0 && seg.Seq(h.Ack) == p.iss.Add(1) {
			p.state = transport.StateEstablished
			p.stopRexmit()
			if p.OnConnected != nil {
				p.OnConnected()
			}
			if p.state == transport.StateClosed {
				return // the connected callback aborted
			}
			// Fall through: the completing segment may carry data.
			s.tcpReceive(p, h, payload)
			p.tcpOutput()
		}
		return
	case transport.StateClosed, transport.StateListen:
		return
	}
	// ESTABLISHED and the closing family.
	if h.Flags&tcpwire.FlagSYN != 0 {
		// Peer retransmitted SYN-ACK: our completing ACK was lost.
		p.sendAck()
		return
	}
	s.tcpReceive(p, h, payload)
	if p.state != transport.StateClosed {
		p.tcpOutput()
	}
	p.checkInvariants(s.cfg.Contracts)
}

// tcpReceive handles acknowledgements, window updates, data and FIN for
// synchronized states — lwIP's tcp_receive(), the function the paper's
// Dafny exercise had to break apart. Note how many PCB fields one pass
// touches.
func (s *Stack) tcpReceive(p *PCB, h *tcpwire.TCPHeader, payload []byte) {
	// --- acknowledgement processing ---
	if h.Flags&tcpwire.FlagACK != 0 {
		ack := seg.Seq(h.Ack)
		switch {
		case p.sndUna.Less(ack) && ack.Leq(p.sndNxt):
			newly := ack.Diff(p.sndUna)
			p.sndUna = ack
			p.trace("cumack", "", 0, uint32(ack), int(newly))
			p.dupAcks = 0
			p.nrexmit = 0
			// Our FIN consumes one sequence number, not a stream byte.
			if p.finSent && p.finSeq.Less(ack) {
				newly--
				if !p.finAcked {
					p.finAcked = true
					p.finAckedTransition()
					if p.state == transport.StateClosed {
						return
					}
				}
			}
			// RTT timing resolves before the controller sees the ack so
			// the sample rides in the same AckSample (0 when Karn's rule
			// invalidates it).
			var sample time.Duration
			if p.timing && p.timedEnd.Leq(ack) {
				sample = timeSince(s, p.timedAt)
				p.rtt.Sample(sample)
				s.m.rttMs.Observe(sample.Milliseconds())
				p.timing = false
			}
			if newly > 0 {
				// Release the send buffer and feed the controller —
				// reliability and congestion control mutating shared
				// state in the same block.
				acked := p.ackedOffset()
				p.sndBuf.Release(acked)
				if p.nextSend < acked {
					p.nextSend = acked
				}
				p.cc.OnAck(ccontrol.AckSample{
					Acked:     int(newly),
					RTT:       sample,
					Delivered: acked,
					InFlight:  p.inflight(),
					Now:       time.Duration(s.sim.Now()),
				})
				if p.OnWritable != nil {
					p.OnWritable()
					if p.state == transport.StateClosed {
						return // aborted from the callback: nothing follows its RST
					}
				}
			}
			p.armRexmit()
		case ack == p.sndUna && p.inflight() > 0 && len(payload) == 0:
			p.dupAcks++
			if p.dupAcks == 3 {
				// Fast retransmit: cut the window, roll back, resend one.
				s.m.fastRetransmits.Inc()
				p.cc.OnLoss(ccontrol.LossEvent{Kind: ccontrol.LossFast})
				p.rollbackAndRetransmit()
			}
		}
		p.sndWnd = int(h.Window)
	}

	// --- data processing ---
	if len(payload) > 0 {
		off, ok := p.rcvOffset(seg.Seq(h.Seq))
		// Acceptability, upper edge: a segment ending beyond what the
		// receive buffer could ever have advertised is dropped and
		// re-acknowledged, or a peer that ignores the window could park
		// unbounded bytes here.
		if ok && off+uint64(len(payload)) <= p.reasm.Next()+transport.BufSize {
			out := p.reasm.Insert(off, payload)
			if len(out) > 0 {
				p.read.Append(out)
				if p.OnReadable != nil {
					p.OnReadable()
					if p.state == transport.StateClosed {
						return // aborted from the callback: no ack follows its RST
					}
				}
			}
		}
		p.syncRcvNxt()
		p.sendAck()
	}

	// --- FIN processing ---
	if h.Flags&tcpwire.FlagFIN != 0 {
		if !p.rcvdFin {
			p.rcvdFin = true
			fo, _ := p.rcvOffset(seg.Seq(h.Seq))
			p.finOffset = fo + uint64(len(payload))
		}
		p.syncRcvNxt()
		p.sendAck()
	}
	p.checkEOF()
}

// finAckedTransition moves the FSM when our FIN is acknowledged.
func (p *PCB) finAckedTransition() {
	switch p.state {
	case transport.StateFinWait1:
		p.state = transport.StateFinWait2
	case transport.StateClosing:
		p.enterTimeWait()
	case transport.StateLastAck:
		p.kill(nil)
	}
}

// syncRcvNxt recomputes rcv_nxt from the reassembly point, covering the
// peer's FIN when the stream is complete — reliable delivery and
// connection teardown reading each other's state.
func (p *PCB) syncRcvNxt() {
	n := p.irs.Add(1).Add(int(uint32(p.reasm.Next())))
	if p.rcvdFin && p.reasm.Next() >= p.finOffset {
		n = n.Add(1)
	}
	p.rcvNxt = n
}

// checkEOF delivers end-of-stream to the application and runs the FIN
// state transition. Both happen only once the peer's stream is
// complete: a FIN arriving ahead of data holes is recorded but, as in
// RFC 793, processed in sequence — closing early would let this end
// vanish while the peer still needs acknowledgements.
func (p *PCB) checkEOF() {
	if p.rcvdFin && !p.eof && p.reasm.Next() >= p.finOffset {
		p.eof = true
		// The stream is whole: nothing is left to paste or to push.
		p.reasm.Release()
		p.read.Finish()
		switch p.state {
		case transport.StateEstablished:
			p.state = transport.StateCloseWait
		case transport.StateFinWait1:
			p.state = transport.StateClosing
		case transport.StateFinWait2:
			p.enterTimeWait()
		}
		if p.OnReadable != nil {
			p.OnReadable()
		}
	}
}

// rcvOffset maps a sequence number to a receive-stream offset.
func (p *PCB) rcvOffset(sq seg.Seq) (uint64, bool) {
	base := p.reasm.Next()
	baseSeq := p.irs.Add(1).Add(int(uint32(base)))
	d := int64(sq.Diff(baseSeq))
	o := int64(base) + d
	if o < 0 {
		return 0, false
	}
	return uint64(o), true
}

// ackedOffset is snd_una as a stream offset.
func (p *PCB) ackedOffset() uint64 {
	d := p.sndUna.Diff(p.iss.Add(1))
	if d < 0 {
		return 0
	}
	off := uint64(d)
	if p.finSent && p.finSeq.Less(p.sndUna) {
		off--
	}
	return off
}

func timeSince(s *Stack, at netsim.Time) time.Duration { return time.Duration(s.sim.Now() - at) }
