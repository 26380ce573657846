// Package seg provides the transport-layer plumbing shared by the
// sublayered and monolithic TCPs: modulo-2^32 sequence arithmetic,
// send/receive byte buffers, a received-range set, and the
// Jacobson/Karels RTT estimator. Sharing library code is functional
// modularity, not state sharing — each TCP instantiates its own
// values; nothing here couples the two implementations at runtime.
package seg

// Seq is a TCP sequence number: 32-bit, wrapping.
type Seq uint32

// Less reports a < b in mod-2^32 arithmetic (RFC 793 style).
func (a Seq) Less(b Seq) bool { return int32(a-b) < 0 }

// Leq reports a ≤ b.
func (a Seq) Leq(b Seq) bool { return int32(a-b) <= 0 }

// Add advances a by n bytes.
func (a Seq) Add(n int) Seq { return a + Seq(uint32(n)) }

// Diff returns a-b as a signed count; callers must know |a-b| < 2^31.
func (a Seq) Diff(b Seq) int { return int(int32(a - b)) }
