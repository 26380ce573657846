package datalink

import (
	"encoding/binary"
	"hash/adler32"
	"hash/crc32"
	"hash/crc64"

	"repro/internal/metrics"
	"repro/internal/sublayer"
)

// Checksum computes and verifies a frame check sequence. Swapping the
// algorithm (the paper's CRC-32 → CRC-64 example) touches nothing
// outside this sublayer.
type Checksum interface {
	// Name identifies the algorithm.
	Name() string
	// Size is the trailer length in bytes.
	Size() int
	// Sum computes the check bytes over data.
	Sum(data []byte) []byte
}

// CRC32 is IEEE 802.3 CRC-32 (via hash/crc32).
type CRC32 struct{}

// Name implements Checksum.
func (CRC32) Name() string { return "crc32" }

// Size implements Checksum.
func (CRC32) Size() int { return 4 }

// Sum implements Checksum.
func (CRC32) Sum(data []byte) []byte {
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], crc32.ChecksumIEEE(data))
	return out[:]
}

// CRC64 is CRC-64/ECMA (via hash/crc64) — the paper's exact example of
// a sublayer-confined change: "the sublayer can be changed (to go from
// say CRC-32 to CRC-64) without changing other sublayers."
type CRC64 struct{}

var crc64Table = crc64.MakeTable(crc64.ECMA)

// Name implements Checksum.
func (CRC64) Name() string { return "crc64" }

// Size implements Checksum.
func (CRC64) Size() int { return 8 }

// Sum implements Checksum.
func (CRC64) Sum(data []byte) []byte {
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], crc64.Checksum(data, crc64Table))
	return out[:]
}

// CRC16 is CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF), the
// HDLC frame check sequence family.
type CRC16 struct{}

// Name implements Checksum.
func (CRC16) Name() string { return "crc16" }

// Size implements Checksum.
func (CRC16) Size() int { return 2 }

// Sum implements Checksum.
func (CRC16) Sum(data []byte) []byte {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	var out [2]byte
	binary.BigEndian.PutUint16(out[:], crc)
	return out[:]
}

// Fletcher16 is the Fletcher checksum used by OSI protocols (and, in
// 32-bit form, by OSPF LSAs).
type Fletcher16 struct{}

// Name implements Checksum.
func (Fletcher16) Name() string { return "fletcher16" }

// Size implements Checksum.
func (Fletcher16) Size() int { return 2 }

// Sum implements Checksum.
func (Fletcher16) Sum(data []byte) []byte {
	var a, b uint16
	for _, x := range data {
		a = (a + uint16(x)) % 255
		b = (b + a) % 255
	}
	return []byte{byte(b), byte(a)}
}

// Adler32 is zlib's checksum (via hash/adler32).
type Adler32 struct{}

// Name implements Checksum.
func (Adler32) Name() string { return "adler32" }

// Size implements Checksum.
func (Adler32) Size() int { return 4 }

// Sum implements Checksum.
func (Adler32) Sum(data []byte) []byte {
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], adler32.Checksum(data))
	return out[:]
}

// Parity is a single longitudinal XOR byte — deliberately weak, used by
// the tests to demonstrate that error-detection strength is a property
// confined to this sublayer.
type Parity struct{}

// Name implements Checksum.
func (Parity) Name() string { return "parity" }

// Size implements Checksum.
func (Parity) Size() int { return 1 }

// Sum implements Checksum.
func (Parity) Sum(data []byte) []byte {
	var p byte
	for _, b := range data {
		p ^= b
	}
	return []byte{p}
}

// ErrDetect is the Fig. 2 error-detection sublayer: it appends the
// check sequence on the way down and verifies it on the way up. Per the
// paper, its interface to error recovery is exactly "frames with a flag
// indicating a bit error on reception": damaged frames are still
// delivered upward with Meta.ErrDetected set, and the sublayer above
// decides what recovery means.
type ErrDetect struct {
	sum Checksum
	rt  sublayer.Runtime

	passed metrics.Counter
	failed metrics.Counter
}

// NewErrDetect wraps a Checksum as a sublayer.
func NewErrDetect(c Checksum) *ErrDetect { return &ErrDetect{sum: c} }

// Name implements sublayer.Sublayer.
func (e *ErrDetect) Name() string { return "errdetect(" + e.sum.Name() + ")" }

// Service implements sublayer.Sublayer (T1).
func (e *ErrDetect) Service() string {
	return "makes the probability of undetected bit errors very small"
}

// Attach implements sublayer.Sublayer.
func (e *ErrDetect) Attach(rt sublayer.Runtime) { e.rt = rt }

// HandleDown appends the check sequence.
func (e *ErrDetect) HandleDown(p *sublayer.PDU) {
	p.Data = append(p.Data, e.sum.Sum(p.Data)...)
	e.rt.SendDown(p)
}

// HandleUp verifies and strips the check sequence, flagging damage.
func (e *ErrDetect) HandleUp(p *sublayer.PDU) {
	n := e.sum.Size()
	if len(p.Data) < n {
		p.Meta.ErrDetected = true
		e.failed.Inc()
		e.rt.DeliverUp(p)
		return
	}
	body, got := p.Data[:len(p.Data)-n], p.Data[len(p.Data)-n:]
	want := e.sum.Sum(body)
	ok := true
	for i := range want {
		if want[i] != got[i] {
			ok = false
			break
		}
	}
	p.Data = body
	if !ok {
		p.Meta.ErrDetected = true
		e.failed.Inc()
	} else {
		e.passed.Inc()
	}
	e.rt.DeliverUp(p)
}

// Stats returns a view of the verification counters (keys: passed,
// failed).
func (e *ErrDetect) Stats() metrics.View { return metrics.ViewOf(e.each) }

// BindMetrics implements metrics.Instrumented.
func (e *ErrDetect) BindMetrics(sc *metrics.Scope) { e.each(sc.Register) }

func (e *ErrDetect) each(f func(string, metrics.Instrument)) {
	f("passed", &e.passed)
	f("failed", &e.failed)
}
