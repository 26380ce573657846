package sublayered

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/netsim"
	"repro/internal/tcpwire"
)

// ISNGenerator is the mechanism CM encapsulates for choosing initial
// sequence numbers: "the main function of CM is to choose ISNs that
// are unique and hard to predict" (§3). Swapping generators (clock vs
// cryptographic) changes nothing outside CM — the E8 replace
// experiment.
type ISNGenerator interface {
	// ISN produces the initial sequence number for a new connection.
	ISN(key tcpwire.FlowKey, now netsim.Time) uint32
}

// ClockISN is RFC 793's original scheme: the low-order bits of a clock
// that ticks every 4µs, making ISNs "unique in time ... to prevent
// segments from one incarnation of a connection from being used while
// the same sequence numbers may still be present in the network from
// an earlier incarnation."
type ClockISN struct{}

// ISN implements ISNGenerator.
func (ClockISN) ISN(_ tcpwire.FlowKey, now netsim.Time) uint32 {
	return uint32(int64(now) / 4000) // one tick per 4µs of virtual time
}

// CryptoISN is RFC 1948's scheme: a cryptographic hash of the
// connection four-tuple and a secret key, plus the clock, "making it
// hard for an attacker to predict the ISN."
type CryptoISN struct {
	// Secret is the per-host key. A Stack's generator keeps the zero
	// key, so a simulated run stays a function of its seed; a real
	// host would draw one at boot.
	Secret [16]byte
}

// ISN implements ISNGenerator.
func (c *CryptoISN) ISN(key tcpwire.FlowKey, now netsim.Time) uint32 {
	var buf [24]byte
	binary.BigEndian.PutUint16(buf[0:2], key.SrcAddr)
	binary.BigEndian.PutUint16(buf[2:4], key.DstAddr)
	binary.BigEndian.PutUint16(buf[4:6], key.SrcPort)
	binary.BigEndian.PutUint16(buf[6:8], key.DstPort)
	copy(buf[8:24], c.Secret[:])
	sum := sha256.Sum256(buf[:])
	return binary.BigEndian.Uint32(sum[:4]) + uint32(int64(now)/4000)
}
