package datalink

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stuffing"
	"repro/internal/sublayer"
)

// --- Line codes ---

func TestLineCodesRoundTrip(t *testing.T) {
	codes := []LineCode{NRZ{}, NRZI{}, Manchester{}}
	rng := rand.New(rand.NewSource(1))
	for _, c := range codes {
		for trial := 0; trial < 100; trial++ {
			n := rng.Intn(200)
			w := bitio.NewWriter(n)
			for i := 0; i < n; i++ {
				w.WriteBit(bitio.Bit(rng.Intn(2)))
			}
			in := w.Bits()
			out := c.Decode(c.Encode(in))
			if !out.Equal(in) {
				t.Fatalf("%s: round trip failed on %s → %s", c.Name(), in, out)
			}
			if c.Encode(in).Len() != in.Len()*c.Expansion() {
				t.Fatalf("%s: expansion mismatch", c.Name())
			}
		}
	}
}

func TestNRZIEncodesTransitions(t *testing.T) {
	// 1 = transition, 0 = hold; starting level 0.
	got := NRZI{}.Encode(bitio.MustParse("1101"))
	if got.String() != "1001" {
		t.Errorf("NRZI encode = %s", got)
	}
}

func TestManchesterSymbols(t *testing.T) {
	got := Manchester{}.Encode(bitio.MustParse("10"))
	if got.String() != "1001" {
		t.Errorf("Manchester encode = %s", got)
	}
	// Odd trailing symbol ignored on decode.
	dec := Manchester{}.Decode(bitio.MustParse("10011"))
	if dec.String() != "10" {
		t.Errorf("Manchester decode = %s", dec)
	}
}

// --- Framers ---

func framers() []Framer {
	return []Framer{
		NewBitStuffFramer(stuffing.HDLC()),
		NewBitStuffFramer(stuffing.LowOverhead()),
		ByteStuffFramer{},
		LengthPrefixFramer{},
	}
}

func TestFramersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, f := range framers() {
		for trial := 0; trial < 50; trial++ {
			pkt := make([]byte, 1+rng.Intn(100))
			rng.Read(pkt)
			bits, err := f.Frame(pkt)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			got := f.Deframe(bits)
			if len(got) != 1 || !bytes.Equal(got[0], pkt) {
				t.Fatalf("%s: deframe = %d frames", f.Name(), len(got))
			}
		}
	}
}

func TestFramersAdversarialPayloads(t *testing.T) {
	// Payloads full of flag/escape bytes must be transparent.
	payloads := [][]byte{
		bytes.Repeat([]byte{0x7E}, 20),         // byte-stuff flag
		bytes.Repeat([]byte{0x7D}, 20),         // byte-stuff escape
		bytes.Repeat([]byte{0xFF}, 20),         // runs of 1s (HDLC watch)
		bytes.Repeat([]byte{0x00}, 20),         // runs of 0s (low-overhead watch)
		bytes.Repeat([]byte{0xA7, 0x00, 3}, 7), // length-prefix magic
	}
	for _, f := range framers() {
		for _, pkt := range payloads {
			bits, err := f.Frame(pkt)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			got := f.Deframe(bits)
			if len(got) != 1 || !bytes.Equal(got[0], pkt) {
				t.Fatalf("%s: adversarial payload % x not transparent", f.Name(), pkt[:3])
			}
		}
	}
}

func TestBitStuffFramerToleratesPadding(t *testing.T) {
	// Trailing pad bits (≤7, as byte packing adds) must not break
	// deframing — this is what the encoding sublayer produces.
	f := NewBitStuffFramer(stuffing.HDLC())
	pkt := []byte{0xDE, 0xAD}
	bits, _ := f.Frame(pkt)
	for pad := 0; pad < 8; pad++ {
		padded := bits
		for i := 0; i < pad; i++ {
			padded = padded.AppendBit(0)
		}
		got := f.Deframe(padded)
		if len(got) != 1 || !bytes.Equal(got[0], pkt) {
			t.Fatalf("pad=%d: deframe failed", pad)
		}
	}
}

func TestBitStuffFramerMultipleFrames(t *testing.T) {
	f := NewBitStuffFramer(stuffing.HDLC())
	a, _ := f.Frame([]byte{1, 2, 3})
	b, _ := f.Frame([]byte{4, 5})
	got := f.Deframe(a.Append(b))
	if len(got) != 2 || !bytes.Equal(got[0], []byte{1, 2, 3}) || !bytes.Equal(got[1], []byte{4, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestBitStuffFramerRejectsInvalidRule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid rule accepted by NewBitStuffFramer")
		}
	}()
	NewBitStuffFramer(stuffing.Rule{
		Flag:  bitio.MustParse("01111110"),
		Watch: bitio.MustParse("000"),
	})
}

func TestLengthPrefixFramerTooLarge(t *testing.T) {
	if _, err := (LengthPrefixFramer{}).Frame(make([]byte, 70000)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestByteStuffFramerDamagedEscape(t *testing.T) {
	// ESC followed by a byte that is not an escaped value: frame
	// discarded, no panic.
	bits := bitio.FromBytes([]byte{byteFlag, 0x41, byteEsc, 0x00, byteFlag})
	got := ByteStuffFramer{}.Deframe(bits)
	if len(got) != 0 {
		t.Errorf("damaged frame accepted: %v", got)
	}
}

// --- Checksums ---

func checksums() []Checksum {
	return []Checksum{CRC32{}, CRC64{}, CRC16{}, Fletcher16{}, Adler32{}, Parity{}}
}

func TestChecksumsDetectSingleBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range checksums() {
		data := make([]byte, 64)
		rng.Read(data)
		sum := c.Sum(data)
		if len(sum) != c.Size() {
			t.Fatalf("%s: Size()=%d but Sum len=%d", c.Name(), c.Size(), len(sum))
		}
		for trial := 0; trial < 64; trial++ {
			mut := append([]byte(nil), data...)
			bit := rng.Intn(len(mut) * 8)
			mut[bit/8] ^= 1 << uint(7-bit%8)
			if bytes.Equal(c.Sum(mut), sum) {
				t.Fatalf("%s: single bit flip undetected", c.Name())
			}
		}
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	got := CRC16{}.Sum([]byte("123456789"))
	if got[0] != 0x29 || got[1] != 0xB1 {
		t.Errorf("CRC16 = %x%x, want 29b1", got[0], got[1])
	}
}

func TestErrDetectFlagsDamage(t *testing.T) {
	sim := netsim.NewSimulator(1)
	ed := NewErrDetect(CRC32{})
	st := sublayer.MustNew(sim, "ed", ed)
	var sent []byte
	var up *sublayer.PDU
	st.SetWire(func(p *sublayer.PDU) { sent = append([]byte(nil), p.Data...) })
	st.SetApp(func(p *sublayer.PDU) { up = p })

	st.Send(sublayer.NewPDU([]byte("hello")))
	if len(sent) != 5+4 {
		t.Fatalf("wire len = %d", len(sent))
	}
	// Clean path.
	st.Receive(sublayer.NewPDU(append([]byte(nil), sent...)))
	if up == nil || up.Meta.ErrDetected || string(up.Data) != "hello" {
		t.Fatalf("clean frame mishandled: %+v", up)
	}
	// Damaged path: still delivered, but flagged — the paper's
	// interface to error recovery.
	bad := append([]byte(nil), sent...)
	bad[2] ^= 0x10
	up = nil
	st.Receive(sublayer.NewPDU(bad))
	if up == nil || !up.Meta.ErrDetected {
		t.Fatal("damage not flagged upward")
	}
	// Truncated below checksum size.
	up = nil
	st.Receive(sublayer.NewPDU([]byte{1, 2}))
	if up == nil || !up.Meta.ErrDetected {
		t.Fatal("short frame not flagged")
	}
	v := ed.Stats()
	if v["passed"] != 1 || v["failed"] != 2 {
		t.Errorf("stats = %d passed, %d failed", v["passed"], v["failed"])
	}
}

// --- Full-stack harness ---

type pair struct {
	sim  *netsim.Simulator
	a, b *sublayer.Stack
	dup  *netsim.Duplex
	rxA  [][]byte
	rxB  [][]byte
}

func newPair(t *testing.T, seed int64, mk func() StackConfig, link netsim.LinkConfig) *pair {
	t.Helper()
	p := &pair{sim: netsim.NewSimulator(seed)}
	var err error
	p.a, err = NewStack(p.sim, "A", mk())
	if err != nil {
		t.Fatal(err)
	}
	p.b, err = NewStack(p.sim, "B", mk())
	if err != nil {
		t.Fatal(err)
	}
	p.a.SetApp(func(pdu *sublayer.PDU) { p.rxA = append(p.rxA, append([]byte(nil), pdu.Data...)) })
	p.b.SetApp(func(pdu *sublayer.PDU) { p.rxB = append(p.rxB, append([]byte(nil), pdu.Data...)) })
	p.dup = Connect(p.sim, p.a, p.b, link)
	return p
}

func makePackets(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		pkt := make([]byte, 10+rng.Intn(60))
		rng.Read(pkt)
		pkt[0] = byte(i) // sequence tag for diagnosis
		out[i] = pkt
	}
	return out
}

func checkDelivery(t *testing.T, name string, sent, got [][]byte) {
	t.Helper()
	if len(got) != len(sent) {
		t.Fatalf("%s: delivered %d of %d", name, len(got), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("%s: packet %d corrupted or out of order", name, i)
		}
	}
}

func lossyLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		Delay:       2 * time.Millisecond,
		Jitter:      time.Millisecond,
		LossProb:    0.15,
		DupProb:     0.05,
		ReorderProb: 0.05,
		CorruptProb: 0.05,
	}
}

// TestE1FullStackReliability: the Fig. 2 composition delivers every
// packet, in order, exactly once, over a link that loses, duplicates,
// reorders and corrupts — with the default sublayers.
func TestE1FullStackReliability(t *testing.T) {
	p := newPair(t, 42, func() StackConfig { return StackConfig{} }, lossyLink())
	sent := makePackets(40, 7)
	for _, pkt := range sent {
		p.a.Send(sublayer.NewPDU(append([]byte(nil), pkt...)))
	}
	p.sim.RunFor(2 * time.Minute)
	checkDelivery(t, "default stack", sent, p.rxB)
}

// TestT3ReplacementMatrix swaps each sublayer implementation while
// holding the others fixed — the litmus-test-T3 fungibility claim. All
// variants must deliver reliably over the same impaired link.
func TestT3ReplacementMatrix(t *testing.T) {
	type variant struct {
		name string
		mk   func() StackConfig
	}
	var variants []variant
	// ARQ axis.
	for _, arq := range []struct {
		name string
		mk   func() sublayer.Sublayer
	}{
		{"stop-and-wait", func() sublayer.Sublayer { return NewStopAndWait(ARQConfig{RTO: 30 * time.Millisecond}) }},
		{"go-back-n", func() sublayer.Sublayer { return NewGoBackN(ARQConfig{}) }},
		{"selective-repeat", func() sublayer.Sublayer { return NewSelectiveRepeat(ARQConfig{}) }},
	} {
		arq := arq
		variants = append(variants, variant{"arq=" + arq.name, func() StackConfig { return StackConfig{ARQ: arq.mk()} }})
	}
	// Checksum axis (parity excluded: deliberately weak).
	for _, cs := range []Checksum{CRC32{}, CRC64{}, CRC16{}, Fletcher16{}, Adler32{}} {
		cs := cs
		variants = append(variants, variant{"checksum=" + cs.Name(), func() StackConfig { return StackConfig{Checksum: cs} }})
	}
	// Framer axis.
	for _, fr := range []func() Framer{
		func() Framer { return NewBitStuffFramer(stuffing.HDLC()) },
		func() Framer { return NewBitStuffFramer(stuffing.LowOverhead()) },
		func() Framer { return ByteStuffFramer{} },
		func() Framer { return LengthPrefixFramer{} },
	} {
		fr := fr
		variants = append(variants, variant{"framer=" + fr().Name(), func() StackConfig { return StackConfig{Framer: fr()} }})
	}
	// Line-code axis.
	for _, lc := range []LineCode{NRZ{}, NRZI{}, Manchester{}} {
		lc := lc
		variants = append(variants, variant{"code=" + lc.Name(), func() StackConfig { return StackConfig{Code: lc} }})
	}

	for i, v := range variants {
		v := v
		i := i
		t.Run(v.name, func(t *testing.T) {
			p := newPair(t, int64(100+i), v.mk, lossyLink())
			sent := makePackets(25, int64(i))
			for _, pkt := range sent {
				p.a.Send(sublayer.NewPDU(append([]byte(nil), pkt...)))
			}
			p.sim.RunFor(3 * time.Minute)
			checkDelivery(t, v.name, sent, p.rxB)
		})
	}
}

// TestBidirectionalTraffic: data and acks share each direction.
func TestBidirectionalTraffic(t *testing.T) {
	p := newPair(t, 9, func() StackConfig { return StackConfig{} }, lossyLink())
	sentA := makePackets(20, 1)
	sentB := makePackets(20, 2)
	for i := range sentA {
		p.a.Send(sublayer.NewPDU(append([]byte(nil), sentA[i]...)))
		p.b.Send(sublayer.NewPDU(append([]byte(nil), sentB[i]...)))
	}
	p.sim.RunFor(2 * time.Minute)
	checkDelivery(t, "a→b", sentA, p.rxB)
	checkDelivery(t, "b→a", sentB, p.rxA)
}

// TestARQStatsReflectWork: on a lossy link, retransmissions happen and
// exactly-once delivery still holds.
func TestARQStatsReflectWork(t *testing.T) {
	arq := NewGoBackN(ARQConfig{})
	p := newPair(t, 5, func() StackConfig { return StackConfig{} }, lossyLink())
	_ = arq
	sent := makePackets(30, 3)
	for _, pkt := range sent {
		p.a.Send(sublayer.NewPDU(append([]byte(nil), pkt...)))
	}
	p.sim.RunFor(2 * time.Minute)
	checkDelivery(t, "gbn", sent, p.rxB)
	aArq := p.a.Layers()[0].(*GoBackN)
	st := aArq.Stats()
	if st["retransmits"] == 0 {
		t.Error("no retransmissions on a 15%-loss link")
	}
	bArq := p.b.Layers()[0].(*GoBackN)
	if bArq.Stats()["delivered"] != 30 {
		t.Errorf("receiver delivered %d", bArq.Stats()["delivered"])
	}
}

// TestCleanLinkNoRetransmits: on a perfect link, no recovery machinery
// fires.
func TestCleanLinkNoRetransmits(t *testing.T) {
	p := newPair(t, 6, func() StackConfig { return StackConfig{} },
		netsim.LinkConfig{Delay: time.Millisecond})
	sent := makePackets(20, 4)
	for _, pkt := range sent {
		p.a.Send(sublayer.NewPDU(append([]byte(nil), pkt...)))
	}
	p.sim.RunFor(10 * time.Second)
	checkDelivery(t, "clean", sent, p.rxB)
	st := p.a.Layers()[0].(*GoBackN).Stats()
	if st["retransmits"] != 0 {
		t.Errorf("spurious retransmits: %d", st["retransmits"])
	}
}

// TestMaxRetriesHaltsLink: on a dead link the ARQ gives up rather than
// retrying forever, and later sends are dropped.
func TestMaxRetriesHaltsLink(t *testing.T) {
	for _, mk := range []func() sublayer.Sublayer{
		func() sublayer.Sublayer { return NewStopAndWait(ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond}) },
		func() sublayer.Sublayer { return NewGoBackN(ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond}) },
		func() sublayer.Sublayer {
			return NewSelectiveRepeat(ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond})
		},
	} {
		p := newPair(t, 7, func() StackConfig { return StackConfig{ARQ: mk()} },
			netsim.LinkConfig{LossProb: 1})
		p.a.Send(sublayer.NewPDU([]byte("doomed")))
		p.sim.RunFor(5 * time.Second)
		type gaveUpper interface{ Stats() metrics.View }
		st := p.a.Layers()[0].(gaveUpper).Stats()
		if st["gave_up"] == 0 {
			t.Errorf("%s: never gave up on dead link", p.a.Layers()[0].Name())
		}
		// The simulator must drain: no infinite retry loop.
		if n := p.sim.Run(100000); n >= 100000 {
			t.Errorf("%s: event loop did not drain after give-up", p.a.Layers()[0].Name())
		}
	}
}

// TestStopAndWaitAlternatingBit: duplicates from a dup-heavy link are
// filtered by the alternating bit.
func TestStopAndWaitAlternatingBit(t *testing.T) {
	p := newPair(t, 8, func() StackConfig {
		return StackConfig{ARQ: NewStopAndWait(ARQConfig{RTO: 20 * time.Millisecond})}
	}, netsim.LinkConfig{Delay: time.Millisecond, DupProb: 0.8})
	sent := makePackets(15, 5)
	for _, pkt := range sent {
		p.a.Send(sublayer.NewPDU(append([]byte(nil), pkt...)))
	}
	p.sim.RunFor(time.Minute)
	checkDelivery(t, "saw", sent, p.rxB)
	st := p.b.Layers()[0].(*StopAndWait).Stats()
	if st["dup_dropped"] == 0 {
		t.Error("no duplicates filtered despite dup=0.8")
	}
}

// --- MAC over a shared bus ---

func TestMACSharedMedium(t *testing.T) {
	sim := netsim.NewSimulator(21)
	bus := sim.NewBus(10_000_000, time.Microsecond) // 10 Mbps
	slot := 200 * time.Microsecond

	type station struct {
		mac *MAC
		rx  [][]byte
	}
	sts := make([]*station, 3)
	for i := range sts {
		st := &station{}
		st.mac = NewMAC(bus, byte(i+1), slot, func(p *sublayer.PDU) {
			st.rx = append(st.rx, append([]byte(nil), p.Data...))
		})
		// Drive the MAC through a minimal stack so it has a Runtime.
		stack := sublayer.MustNew(sim, fmt.Sprintf("mac%d", i), st.mac)
		_ = stack
		sts[i] = st
	}

	// Stations 0 and 1 each send 20 frames to station 2,
	// starting simultaneously: collisions guaranteed.
	for n := 0; n < 20; n++ {
		payload0 := []byte{0, byte(n)}
		payload1 := []byte{1, byte(n)}
		sim.Schedule(0, func() { sts[0].mac.SendTo(3, payload0) })
		sim.Schedule(0, func() { sts[1].mac.SendTo(3, payload1) })
	}
	sim.RunFor(5 * time.Second)

	if got := len(sts[2].rx); got != 40 {
		t.Fatalf("station 2 received %d of 40", got)
	}
	if bus.Stats()["collisions"] == 0 {
		t.Error("no collisions despite simultaneous senders")
	}
	// Both senders got through (eventual fairness).
	var from0, from1 int
	for _, f := range sts[2].rx {
		if f[0] == 0 {
			from0++
		} else {
			from1++
		}
	}
	if from0 != 20 || from1 != 20 {
		t.Errorf("from0=%d from1=%d", from0, from1)
	}
	// Unicast filtering: stations 0/1 heard each other's frames
	// addressed to 2 and filtered them.
	if sts[0].mac.Stats()["filtered"] == 0 && sts[1].mac.Stats()["filtered"] == 0 {
		t.Error("no frames filtered by address")
	}
}

// --- Header overhead accounting (E1's Fig. 2 right side) ---

func TestPerSublayerOverhead(t *testing.T) {
	sim := netsim.NewSimulator(1)
	st, err := NewStack(sim, "ovh", StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wireLen int
	st.SetWire(func(p *sublayer.PDU) { wireLen = len(p.Data) })
	payload := make([]byte, 100)
	st.Send(sublayer.NewPDU(payload))
	bs := st.Boundaries()
	// Each boundary's DownBytes grows monotonically toward the wire:
	// every sublayer adds, none removes (Fig. 2's header picture).
	for i := 1; i < len(bs); i++ {
		if bs[i].DownBytes < bs[i-1].DownBytes {
			t.Errorf("boundary %d shrank: %d < %d", i, bs[i].DownBytes, bs[i-1].DownBytes)
		}
	}
	// ARQ adds exactly its header; errdetect exactly its trailer.
	if bs[1].DownBytes-bs[0].DownBytes != arqHeaderLen {
		t.Errorf("ARQ overhead = %d", bs[1].DownBytes-bs[0].DownBytes)
	}
	if bs[2].DownBytes-bs[1].DownBytes != 4 {
		t.Errorf("CRC32 overhead = %d", bs[2].DownBytes-bs[1].DownBytes)
	}
	if wireLen == 0 {
		t.Fatal("nothing on wire")
	}
}

func BenchmarkFullStackSend(b *testing.B) {
	// NoARQ: an unacknowledged ARQ would retransmit forever into the
	// void; this measures the encode path (checksum+framing+coding).
	sim := netsim.NewSimulator(1)
	st, _ := NewStack(sim, "bench", StackConfig{NoARQ: true})
	st.SetWire(func(p *sublayer.PDU) {})
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Send(sublayer.NewPDU(payload))
	}
}

func BenchmarkBitStuffFrame1500(b *testing.B) {
	f := NewBitStuffFramer(stuffing.HDLC())
	pkt := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Frame(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNestedFraming compares the recursive two-sublayer framing
// against the monolithic framer (the cost of literal recursion) — the
// ablation whose subject is CPU cost itself.
func BenchmarkNestedFraming(b *testing.B) {
	pkt := make([]byte, 512)
	for _, c := range []struct {
		name string
		f    Framer
	}{
		{"monolithic-framer", NewBitStuffFramer(stuffing.HDLC())},
		{"nested-framer", NewNestedFramer(stuffing.HDLC())},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bits, err := c.f.Frame(pkt)
				if err != nil {
					b.Fatal(err)
				}
				if got := c.f.Deframe(bits); len(got) != 1 {
					b.Fatal("deframe failed")
				}
			}
		})
	}
}

// --- §4.1 nested sublayering within framing ---

func TestNestedFramerEquivalentToMonolithic(t *testing.T) {
	// The recursive (stuffing ∘ flagging) implementation and the
	// monolithic BitStuffFramer are observationally identical.
	rng := rand.New(rand.NewSource(31))
	nested := NewNestedFramer(stuffing.HDLC())
	mono := NewBitStuffFramer(stuffing.HDLC())
	for trial := 0; trial < 100; trial++ {
		pkt := make([]byte, 1+rng.Intn(80))
		rng.Read(pkt)
		nb, err := nested.Frame(pkt)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := mono.Frame(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !nb.Equal(mb) {
			t.Fatalf("wire images differ for % x", pkt)
		}
		// Cross-decode: each deframes the other's output.
		got := nested.Deframe(mb)
		if len(got) != 1 || !bytes.Equal(got[0], pkt) {
			t.Fatalf("nested failed to deframe monolithic output")
		}
		got = mono.Deframe(nb)
		if len(got) != 1 || !bytes.Equal(got[0], pkt) {
			t.Fatalf("monolithic failed to deframe nested output")
		}
	}
}

func TestNestedFramerInFullStack(t *testing.T) {
	// Drop the recursive framer into the Fig. 2 stack (a sublayer of a
	// sublayer of the data link) over a lossy corrupting link.
	p := newPair(t, 33, func() StackConfig {
		return StackConfig{Framer: NewNestedFramer(stuffing.HDLC())}
	}, lossyLink())
	sent := makePackets(25, 12)
	for _, pkt := range sent {
		p.a.Send(sublayer.NewPDU(append([]byte(nil), pkt...)))
	}
	p.sim.RunFor(3 * time.Minute)
	checkDelivery(t, "nested framer", sent, p.rxB)
}

func TestNestedFramerToleratesJunk(t *testing.T) {
	n := NewNestedFramer(stuffing.LowOverhead())
	pkt := []byte{0xAB, 0xCD}
	bits, _ := n.Frame(pkt)
	// Junk before and padding after, as line decoding produces.
	junked := bitio.MustParse("110").Append(bits).AppendBit(0).AppendBit(0)
	got := n.Deframe(junked)
	if len(got) != 1 || !bytes.Equal(got[0], pkt) {
		t.Fatalf("junk broke nested deframing: %v", got)
	}
}

func TestNestedFramerRejectsInvalidRule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid rule accepted")
		}
	}()
	NewNestedFramer(stuffing.Rule{Flag: bitio.MustParse("01111110"), Watch: bitio.MustParse("000")})
}

func TestStuffSublayerDropsCorrupt(t *testing.T) {
	sim := netsim.NewSimulator(1)
	st := sublayer.MustNew(sim, "s", NewStuffSublayer(stuffing.HDLC()))
	delivered := 0
	st.SetApp(func(p *sublayer.PDU) { delivered++ })
	// 111111: watch completes but the next bit is 1, not the stuff bit.
	bad := bitio.MustParse("1111110111111")
	data, n := bad.Bytes()
	st.Receive(&sublayer.PDU{Data: data, BitLen: n})
	if delivered != 0 {
		t.Error("corrupt stuffed stream delivered")
	}
}

// --- bridged broadcast LANs ---

// TestBridgeLearnsAndForwards: two bus segments joined by a learning
// bridge. Hosts on different segments reach each other; once the
// bridge has learned, same-segment traffic is filtered rather than
// forwarded.
func TestBridgeLearnsAndForwards(t *testing.T) {
	sim := netsim.NewSimulator(41)
	slot := 200 * time.Microsecond
	busA := sim.NewBus(10_000_000, time.Microsecond)
	busB := sim.NewBus(10_000_000, time.Microsecond)

	type host struct {
		mac *MAC
		rx  [][]byte
	}
	mkHost := func(bus *netsim.Bus, addr byte) *host {
		h := &host{}
		h.mac = NewMAC(bus, addr, slot, func(p *sublayer.PDU) {
			h.rx = append(h.rx, append([]byte(nil), p.Data...))
		})
		sublayer.MustNew(sim, fmt.Sprintf("host%d", addr), h.mac)
		return h
	}
	h1 := mkHost(busA, 1) // segment A
	h2 := mkHost(busA, 2) // segment A
	h3 := mkHost(busB, 3) // segment B

	bridge := NewBridge(sim, slot, busA, busB)

	// Cross-segment unicast: h1 → h3 (flooded first, learned after).
	h1.mac.SendTo(3, []byte("cross"))
	sim.RunFor(time.Second)
	if len(h3.rx) != 1 || string(h3.rx[0]) != "cross" {
		t.Fatalf("cross-segment frame not delivered: %v", h3.rx)
	}
	// Reply h3 → h1: by now the bridge knows where 1 lives.
	h3.mac.SendTo(1, []byte("reply"))
	sim.RunFor(time.Second)
	if len(h1.rx) != 1 || string(h1.rx[0]) != "reply" {
		t.Fatalf("reply not delivered: %v", h1.rx)
	}
	st := bridge.Stats()
	if st["learned"] < 2 {
		t.Errorf("bridge learned %d addresses", st["learned"])
	}
	if st["forwarded"] == 0 {
		t.Error("bridge never forwarded a learned unicast")
	}
	// Let the bridge learn h2's segment (h2 transmits once), then
	// same-segment unicast h1 → h2 must be filtered, not forwarded.
	h2.mac.SendTo(1, []byte("teach"))
	sim.RunFor(time.Second)
	fwdBefore := bridge.Stats()["forwarded"]
	floodBefore := bridge.Stats()["flooded"]
	h1.mac.SendTo(2, []byte("local"))
	sim.RunFor(time.Second)
	if len(h2.rx) != 1 || string(h2.rx[0]) != "local" {
		t.Fatalf("local frame not delivered: %v", h2.rx)
	}
	_ = h1.rx // h1 also heard "teach"; counts checked below
	st = bridge.Stats()
	if st["forwarded"] != fwdBefore || st["flooded"] != floodBefore {
		t.Errorf("bridge forwarded same-segment traffic (fwd %d→%d flood %d→%d)",
			fwdBefore, st["forwarded"], floodBefore, st["flooded"])
	}
	if st["filtered"] == 0 {
		t.Error("filter decision not counted")
	}
	// Broadcast reaches everyone on both segments.
	h1.mac.SendTo(Broadcast, []byte("all"))
	sim.RunFor(time.Second)
	if len(h2.rx) != 2 || len(h3.rx) != 2 {
		t.Errorf("broadcast not flooded: h2=%d h3=%d frames", len(h2.rx), len(h3.rx))
	}
	// The bridge learned ports correctly.
	tab := bridge.Table()
	if tab[1] != 0 || tab[2] != 0 || tab[3] != 1 {
		t.Errorf("table = %v", tab)
	}
}

// TestBroadcastLANWithChecksums: the Fig. 2 "broadcast link" column —
// error detection over MAC over a colliding bus, no ARQ. Every
// surviving frame verifies; collisions are resolved by backoff.
func TestBroadcastLANWithChecksums(t *testing.T) {
	sim := netsim.NewSimulator(42)
	bus := sim.NewBus(10_000_000, time.Microsecond)
	slot := 200 * time.Microsecond

	type node struct {
		stack *sublayer.Stack
		rx    int
		bad   int
	}
	var nodes []*node
	for i := 0; i < 3; i++ {
		n := &node{}
		var st *sublayer.Stack
		mac := NewMAC(bus, byte(i+1), slot, func(p *sublayer.PDU) { st.Receive(p) })
		st = sublayer.MustNew(sim, fmt.Sprintf("lan-%d", i), NewErrDetect(CRC32{}))
		st.SetWire(func(p *sublayer.PDU) { mac.SendTo(Broadcast, p.Data) })
		sublayer.MustNew(sim, fmt.Sprintf("lan-mac-%d", i), mac) // gives the MAC its timers
		st.SetApp(func(p *sublayer.PDU) {
			if p.Meta.ErrDetected {
				n.bad++
			} else {
				n.rx++
			}
		})
		n.stack = st
		nodes = append(nodes, n)
	}
	// Two nodes transmit simultaneously, repeatedly: collisions happen,
	// backoff resolves them, CRC verifies every delivered frame.
	for k := 0; k < 15; k++ {
		payload := []byte(fmt.Sprintf("frame-%d", k))
		nodes[0].stack.Send(sublayer.NewPDU(append([]byte(nil), payload...)))
		nodes[1].stack.Send(sublayer.NewPDU(append([]byte(nil), payload...)))
	}
	sim.RunFor(10 * time.Second)
	if bus.Stats()["collisions"] == 0 {
		t.Error("no collisions on simultaneous broadcast load")
	}
	// Receiver 2 hears both senders: 30 frames, none corrupt.
	if nodes[2].rx != 30 {
		t.Errorf("node 2 received %d of 30", nodes[2].rx)
	}
	if nodes[2].bad != 0 {
		t.Errorf("%d frames failed CRC on a collision-free-after-backoff bus", nodes[2].bad)
	}
}
