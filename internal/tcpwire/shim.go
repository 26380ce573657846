package tcpwire

import "repro/internal/metrics"

// The §3.1 shim sublayer: "adding a shim sublayer that converts the
// sublayered header in Figure 6 to a standard TCP header ... should
// allow interoperability." The mapping is an isomorphism:
//
//	DM.SrcPort/DstPort  ↔ TCP ports
//	RD.Seq/Ack/AckValid ↔ TCP seq/ack/ACK flag
//	RD.SACK             ↔ TCP SACK option
//	CM.SYN/FIN/RST      ↔ TCP flags
//	CM.ISN              ↔ TCP seq of the SYN (static afterwards)
//	OSR.Window/ECE/CWR  ↔ TCP window/ECE/CWR
//
// Only CM.ISN needs care: after the handshake the standard header no
// longer carries it, so the TCP→Fig6 direction consults per-flow state
// seeded by the SYN exchange. That state is exactly the redundancy the
// paper points out.

// FlowKey identifies one direction of a connection as the shim sees it.
type FlowKey struct {
	SrcAddr, DstAddr uint16
	SrcPort, DstPort uint16
}

// Reverse returns the opposite direction's key.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcAddr: k.DstAddr, DstAddr: k.SrcAddr, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Shim translates between the Fig. 6 sublayered header and RFC 793
// wire segments. One Shim instance serves one host (all its flows).
type Shim struct {
	// MSS is advertised in outbound SYNs.
	MSS uint16
	// isns remembers each flow direction's ISN, learned from SYNs.
	isns map[FlowKey]uint32
	// peerSACK remembers whether the remote end negotiated SACK;
	// blocks are stripped toward peers that did not.
	peerSACK map[FlowKey]bool
	m        shimMetrics
}

// shimMetrics instruments translations.
type shimMetrics struct {
	outbound, inbound metrics.Counter
	unknownISN        metrics.Counter // inbound non-SYN segments for unseeded flows
	sackStripped      metrics.Counter
	checksumRejected  metrics.Counter
}

func (m *shimMetrics) each(f func(string, metrics.Instrument)) {
	f("outbound", &m.outbound)
	f("inbound", &m.inbound)
	f("unknown_isn", &m.unknownISN)
	f("sack_stripped", &m.sackStripped)
	f("checksum_rejected", &m.checksumRejected)
}

// NewShim returns a shim advertising the given MSS.
func NewShim(mss uint16) *Shim {
	return &Shim{MSS: mss, isns: make(map[FlowKey]uint32), peerSACK: make(map[FlowKey]bool)}
}

// Stats returns a snapshot of the shim counters.
func (s *Shim) Stats() metrics.View { return metrics.ViewOf(s.m.each) }

// BindMetrics adopts the shim counters into sc (metrics.Instrumented).
func (s *Shim) BindMetrics(sc *metrics.Scope) { s.m.each(sc.Register) }

// ToTCP maps a sublayered header to a standard one (stateless except
// for SACK-permission stripping).
func (s *Shim) ToTCP(sub *SubHeader, key FlowKey) *TCPHeader {
	h := &TCPHeader{
		SrcPort: sub.DM.SrcPort,
		DstPort: sub.DM.DstPort,
		Seq:     sub.RD.Seq,
		Ack:     sub.RD.Ack,
		Window:  sub.OSR.Window,
		WScale:  -1,
	}
	if sub.RD.AckValid {
		h.Flags |= FlagACK
	}
	if sub.CM.SYN {
		h.Flags |= FlagSYN
		h.MSS = s.MSS
		h.SACKPermitted = true
	}
	if sub.CM.FIN {
		h.Flags |= FlagFIN
	}
	if sub.CM.RST {
		h.Flags |= FlagRST
	}
	if sub.OSR.ECE {
		h.Flags |= FlagECE
	}
	if sub.OSR.CWR {
		h.Flags |= FlagCWR
	}
	if len(sub.RD.SACK) > 0 {
		if s.peerSACK[key.Reverse()] {
			h.SACKBlocks = sub.RD.SACK
		} else {
			s.m.sackStripped.Inc()
		}
	}
	return h
}

// FromTCP maps a standard header to a sublayered one, consulting (and
// updating) the per-flow ISN memory.
func (s *Shim) FromTCP(h *TCPHeader, key FlowKey) *SubHeader {
	sub := &SubHeader{
		DM: DMSection{SrcPort: h.SrcPort, DstPort: h.DstPort},
		CM: CMSection{
			SYN: h.Flags&FlagSYN != 0,
			FIN: h.Flags&FlagFIN != 0,
			RST: h.Flags&FlagRST != 0,
		},
		RD: RDSection{
			Seq:      h.Seq,
			Ack:      h.Ack,
			AckValid: h.Flags&FlagACK != 0,
			SACK:     h.SACKBlocks,
		},
		OSR: OSRSection{
			Window: h.Window,
			ECE:    h.Flags&FlagECE != 0,
			CWR:    h.Flags&FlagCWR != 0,
		},
	}
	if sub.CM.SYN {
		s.isns[key] = h.Seq
		if h.SACKPermitted {
			s.peerSACK[key] = true
		}
		sub.CM.ISN = h.Seq
	} else if isn, ok := s.isns[key]; ok {
		sub.CM.ISN = isn
	} else {
		s.m.unknownISN.Inc()
	}
	return sub
}

// Outbound converts a sublayered header+payload into RFC 793 wire
// bytes for the network. It also seeds the local direction's ISN so
// the isomorphism tests can invert.
func (s *Shim) Outbound(sub *SubHeader, payload []byte, key FlowKey) []byte {
	s.m.outbound.Inc()
	sub.OSR.DataLen = uint16(len(payload))
	if sub.CM.SYN {
		s.isns[key] = sub.RD.Seq
	}
	h := s.ToTCP(sub, key)
	return h.Marshal(payload, key.SrcAddr, key.DstAddr)
}

// Inbound converts RFC 793 wire bytes into a sublayered header and
// payload, verifying the TCP checksum. Only the addresses of key are
// consulted; the ports come from the decoded header (they are DM's
// bits, below the shim).
func (s *Shim) Inbound(data []byte, key FlowKey) (*SubHeader, []byte, error) {
	h, payload, err := UnmarshalTCP(data, key.SrcAddr, key.DstAddr)
	if err != nil {
		s.m.checksumRejected.Inc()
		return nil, nil, err
	}
	s.m.inbound.Inc()
	key.SrcPort, key.DstPort = h.SrcPort, h.DstPort
	sub := s.FromTCP(h, key)
	sub.OSR.DataLen = uint16(len(payload))
	return sub, payload, nil
}
