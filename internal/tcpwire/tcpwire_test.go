package tcpwire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func randHeader(rng *rand.Rand) *TCPHeader {
	h := &TCPHeader{
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Seq:     rng.Uint32(),
		Ack:     rng.Uint32(),
		Flags:   uint8(rng.Intn(256)),
		Window:  uint16(rng.Intn(65536)),
		WScale:  -1,
	}
	if rng.Intn(2) == 0 {
		h.MSS = uint16(500 + rng.Intn(1000))
	}
	if rng.Intn(3) == 0 {
		h.WScale = int8(rng.Intn(14))
	}
	if rng.Intn(3) == 0 {
		h.SACKPermitted = true
	}
	for i := 0; i < rng.Intn(4); i++ {
		a := rng.Uint32()
		h.SACKBlocks = append(h.SACKBlocks, [2]uint32{a, a + uint32(rng.Intn(5000))})
	}
	return h
}

func headersEqual(a, b *TCPHeader) bool {
	if a.SrcPort != b.SrcPort || a.DstPort != b.DstPort || a.Seq != b.Seq ||
		a.Ack != b.Ack || a.Flags != b.Flags || a.Window != b.Window || a.Urgent != b.Urgent ||
		a.MSS != b.MSS || a.WScale != b.WScale || a.SACKPermitted != b.SACKPermitted ||
		len(a.SACKBlocks) != len(b.SACKBlocks) {
		return false
	}
	for i := range a.SACKBlocks {
		if a.SACKBlocks[i] != b.SACKBlocks[i] {
			return false
		}
	}
	return true
}

func TestTCPMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		h := randHeader(rng)
		payload := make([]byte, rng.Intn(100))
		rng.Read(payload)
		wire := h.Marshal(payload, 3, 9)
		got, gotPayload, err := UnmarshalTCP(wire, 3, 9)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !headersEqual(h, got) {
			t.Fatalf("trial %d: header mismatch\n in: %+v\nout: %+v", trial, h, got)
		}
		if !bytes.Equal(payload, gotPayload) {
			t.Fatalf("trial %d: payload mismatch", trial)
		}
	}
}

func TestTCPChecksumCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randHeader(rng)
	payload := []byte("some payload data here")
	wire := h.Marshal(payload, 1, 2)
	detected := 0
	for bit := 0; bit < len(wire)*8; bit++ {
		mut := append([]byte(nil), wire...)
		mut[bit/8] ^= 1 << uint(7-bit%8)
		if _, _, err := UnmarshalTCP(mut, 1, 2); err != nil {
			detected++
		}
	}
	// Every single-bit flip must be detected (ones' complement catches
	// all single-bit errors).
	if detected != len(wire)*8 {
		t.Errorf("detected %d of %d single-bit flips", detected, len(wire)*8)
	}
}

func TestTCPChecksumPseudoHeader(t *testing.T) {
	// A segment valid for (1,2) must not verify for (1,3): the
	// pseudo-header binds addresses.
	h := &TCPHeader{SrcPort: 5, DstPort: 6, WScale: -1}
	wire := h.Marshal(nil, 1, 2)
	if _, _, err := UnmarshalTCP(wire, 1, 3); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("wrong-address segment accepted: %v", err)
	}
}

func TestTCPTruncated(t *testing.T) {
	h := &TCPHeader{WScale: -1}
	wire := h.Marshal([]byte("xyz"), 1, 2)
	if _, _, err := UnmarshalTCP(wire[:10], 1, 2); err == nil {
		t.Error("10-byte segment accepted")
	}
	// Data offset pointing past the end.
	bad := append([]byte(nil), wire...)
	bad[12] = 0xF0
	if _, _, err := UnmarshalTCP(bad, 1, 2); err == nil {
		t.Error("bogus data offset accepted")
	}
}

func TestFlagString(t *testing.T) {
	if got := FlagString(FlagSYN | FlagACK); got != "SYN|ACK" {
		t.Errorf("FlagString = %q", got)
	}
	if got := FlagString(0); got != "none" {
		t.Errorf("FlagString(0) = %q", got)
	}
}

func randSub(rng *rand.Rand) *SubHeader {
	h := &SubHeader{
		DM:  DMSection{SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536))},
		CM:  CMSection{SYN: rng.Intn(2) == 0, FIN: rng.Intn(4) == 0, RST: rng.Intn(8) == 0, ISN: rng.Uint32()},
		RD:  RDSection{Seq: rng.Uint32(), Ack: rng.Uint32(), AckValid: rng.Intn(2) == 0},
		OSR: OSRSection{Window: uint16(rng.Intn(65536)), ECE: rng.Intn(4) == 0, CWR: rng.Intn(4) == 0},
	}
	for i := 0; i < rng.Intn(3); i++ {
		a := rng.Uint32()
		h.RD.SACK = append(h.RD.SACK, [2]uint32{a, a + 100})
	}
	return h
}

func subEqual(a, b *SubHeader) bool {
	if a.DM != b.DM || a.CM != b.CM {
		return false
	}
	if a.RD.Seq != b.RD.Seq || a.RD.Ack != b.RD.Ack || a.RD.AckValid != b.RD.AckValid ||
		len(a.RD.SACK) != len(b.RD.SACK) {
		return false
	}
	for i := range a.RD.SACK {
		if a.RD.SACK[i] != b.RD.SACK[i] {
			return false
		}
	}
	return a.OSR == b.OSR
}

func TestSubMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		h := randSub(rng)
		payload := make([]byte, rng.Intn(80))
		rng.Read(payload)
		wire := h.Marshal(payload)
		got, gotPayload, err := UnmarshalSub(wire)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !subEqual(h, got) {
			t.Fatalf("trial %d: mismatch\n in: %+v\nout: %+v", trial, h, got)
		}
		if !bytes.Equal(payload, gotPayload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestSubSectionsAreDisjoint(t *testing.T) {
	// T3 on the wire: flipping bits inside one sublayer's section must
	// never change another section's decoded value.
	h := randSub(rand.New(rand.NewSource(4)))
	h.RD.SACK = nil
	wire := h.Marshal(nil)
	base, _, _ := UnmarshalSub(wire)
	// DM owns [0,4); CM [4,9); RD [9,19); OSR [19,24).
	sections := []struct {
		name     string
		from, to int
	}{
		{"DM", 0, 4}, {"CM", 4, 9}, {"RD", 9, 19}, {"OSR", 19, 24},
	}
	for _, sec := range sections {
		for byteIdx := sec.from; byteIdx < sec.to; byteIdx++ {
			mut := append([]byte(nil), wire...)
			mut[byteIdx] ^= 0xFF
			got, _, err := UnmarshalSub(mut)
			if err != nil {
				continue // structural damage (e.g. DataLen) is fine
			}
			if sec.name != "DM" && got.DM != base.DM {
				t.Fatalf("flipping %s byte %d changed DM", sec.name, byteIdx)
			}
			if sec.name != "CM" && got.CM != base.CM {
				t.Fatalf("flipping %s byte %d changed CM", sec.name, byteIdx)
			}
			if sec.name != "RD" && (got.RD.Seq != base.RD.Seq || got.RD.Ack != base.RD.Ack) {
				t.Fatalf("flipping %s byte %d changed RD", sec.name, byteIdx)
			}
			if sec.name != "OSR" && got.OSR.Window != base.OSR.Window {
				t.Fatalf("flipping %s byte %d changed OSR", sec.name, byteIdx)
			}
		}
	}
}

func TestSubUnmarshalErrors(t *testing.T) {
	if _, _, err := UnmarshalSub(make([]byte, 10)); err == nil {
		t.Error("short segment accepted")
	}
	// DataLen inconsistent with actual payload.
	h := randSub(rand.New(rand.NewSource(5)))
	wire := h.Marshal([]byte("abc"))
	if _, _, err := UnmarshalSub(wire[:len(wire)-1]); err == nil {
		t.Error("DataLen mismatch accepted")
	}
	// SACK count pointing past end.
	h2 := &SubHeader{RD: RDSection{SACK: [][2]uint32{{1, 2}, {3, 4}}}}
	w2 := h2.Marshal(nil)
	if _, _, err := UnmarshalSub(w2[:subFixed+4]); err == nil {
		t.Error("truncated SACK accepted")
	}
}

// --- Shim / isomorphism ---

func flowKey() FlowKey { return FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 1000, DstPort: 80} }

// TestIsomorphismSubToTCPAndBack: the paper's claim that "all
// information in the standard TCP header appears in Figure 6 and vice
// versa." Sub → TCP → Sub is the identity once the shim has seen the
// SYN (ISN is the one stateful field).
func TestIsomorphismSubToTCPAndBack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		shimA := NewShim(1400)
		key := flowKey()
		// First, a SYN seeds the ISN memory on both sides.
		syn := &SubHeader{
			DM: DMSection{SrcPort: key.SrcPort, DstPort: key.DstPort},
			CM: CMSection{SYN: true, ISN: rng.Uint32()},
			RD: RDSection{Seq: 0},
		}
		syn.RD.Seq = syn.CM.ISN // invariant: SYN's seq is the ISN
		wire := shimA.Outbound(syn, nil, key)
		shimB := NewShim(1400)
		gotSyn, _, err := shimB.Inbound(wire, key)
		if err != nil {
			t.Fatal(err)
		}
		if gotSyn.CM.ISN != syn.CM.ISN || !gotSyn.CM.SYN {
			t.Fatalf("SYN translation lost ISN: %+v", gotSyn.CM)
		}
		// Then arbitrary established-state segments round-trip exactly.
		h := randSub(rng)
		h.DM = DMSection{SrcPort: key.SrcPort, DstPort: key.DstPort}
		h.CM.SYN, h.CM.RST = false, false
		h.CM.ISN = syn.CM.ISN // static after handshake
		h.RD.SACK = nil       // SACK needs peer negotiation, tested below
		payload := make([]byte, rng.Intn(50))
		rng.Read(payload)
		wire = shimA.Outbound(h, payload, key)
		got, gotPayload, err := shimB.Inbound(wire, key)
		if err != nil {
			t.Fatal(err)
		}
		if !subEqual(h, got) {
			t.Fatalf("trial %d: not isomorphic\n in: %+v %+v %+v %+v\nout: %+v %+v %+v %+v",
				trial, h.DM, h.CM, h.RD, h.OSR, got.DM, got.CM, got.RD, got.OSR)
		}
		if !bytes.Equal(payload, gotPayload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestShimISNUnknownWithoutSYN(t *testing.T) {
	shim := NewShim(1400)
	h := &TCPHeader{SrcPort: 1, DstPort: 2, Seq: 777, Flags: FlagACK, WScale: -1}
	sub := shim.FromTCP(h, flowKey())
	if sub.CM.ISN != 0 {
		t.Errorf("ISN = %d for unseeded flow", sub.CM.ISN)
	}
	if shim.Stats().Get("unknown_isn") != 1 {
		t.Error("UnknownISN not counted")
	}
}

func TestShimSACKNegotiation(t *testing.T) {
	key := flowKey()
	shim := NewShim(1400)
	sub := &SubHeader{
		DM: DMSection{SrcPort: key.SrcPort, DstPort: key.DstPort},
		RD: RDSection{AckValid: true, SACK: [][2]uint32{{10, 20}}},
	}
	// Peer has not negotiated SACK: blocks stripped.
	h := shim.ToTCP(sub, key)
	if len(h.SACKBlocks) != 0 {
		t.Error("SACK sent to non-negotiating peer")
	}
	if shim.Stats().Get("sack_stripped") != 1 {
		t.Error("strip not counted")
	}
	// Peer SYN with SACKPermitted arrives: now blocks pass.
	peerSYN := &TCPHeader{Flags: FlagSYN, SACKPermitted: true, Seq: 5, WScale: -1}
	shim.FromTCP(peerSYN, key.Reverse())
	h = shim.ToTCP(sub, key)
	if len(h.SACKBlocks) != 1 {
		t.Error("SACK stripped despite negotiation")
	}
}

func TestShimSYNCarriesOptions(t *testing.T) {
	shim := NewShim(1234)
	sub := &SubHeader{CM: CMSection{SYN: true, ISN: 99}, RD: RDSection{Seq: 99}}
	h := shim.ToTCP(sub, flowKey())
	if h.MSS != 1234 || !h.SACKPermitted {
		t.Errorf("SYN options = MSS %d, SACKPermitted %v", h.MSS, h.SACKPermitted)
	}
}

func TestShimRejectsCorruptInbound(t *testing.T) {
	shim := NewShim(1400)
	h := &TCPHeader{SrcPort: 1, DstPort: 2, WScale: -1}
	wire := h.Marshal([]byte("data"), 1, 2)
	wire[21] ^= 0x01
	if _, _, err := shim.Inbound(wire, flowKey()); err == nil {
		t.Error("corrupt segment accepted")
	}
	if shim.Stats().Get("checksum_rejected") != 1 {
		t.Error("rejection not counted")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := flowKey()
	r := k.Reverse()
	if r.SrcAddr != k.DstAddr || r.DstPort != k.SrcPort || r.Reverse() != k {
		t.Errorf("Reverse = %+v", r)
	}
}

func BenchmarkTCPMarshal(b *testing.B) {
	h := &TCPHeader{SrcPort: 1, DstPort: 2, Seq: 100, Ack: 200, Flags: FlagACK, Window: 65535, WScale: -1}
	payload := make([]byte, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Marshal(payload, 1, 2)
	}
}

func BenchmarkTCPUnmarshal(b *testing.B) {
	h := &TCPHeader{SrcPort: 1, DstPort: 2, Seq: 100, Ack: 200, Flags: FlagACK, Window: 65535, WScale: -1}
	wire := h.Marshal(make([]byte, 1400), 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := UnmarshalTCP(wire, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShimTranslate(b *testing.B) {
	shim := NewShim(1400)
	key := flowKey()
	sub := &SubHeader{
		DM:  DMSection{SrcPort: key.SrcPort, DstPort: key.DstPort},
		RD:  RDSection{Seq: 100, Ack: 200, AckValid: true},
		OSR: OSRSection{Window: 65535},
	}
	payload := make([]byte, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire := shim.Outbound(sub, payload, key)
		if _, _, err := shim.Inbound(wire, key); err != nil {
			b.Fatal(err)
		}
	}
}
