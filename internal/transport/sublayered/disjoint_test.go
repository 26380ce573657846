package sublayered_test

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/verify"
)

// TestDisjointState is T3's "disjoint state" litmus, read from the
// source: no method of one sublayer type (DM, HandshakeCM, TimerCM, RD,
// OSR) reads or writes a field of another. A sublayer reaches its
// neighbours through their methods only. Conn is the wiring between
// them, not a sublayer, so its own fields are out of scope. The two
// connection managers share cmCore, whose methods are neither's, so a
// second reading holds cmCore to the same rule beside DM, RD and OSR.
func TestDisjointState(t *testing.T) {
	for _, sublayers := range [][]string{
		{"DM", "HandshakeCM", "TimerCM", "RD", "OSR"},
		{"DM", "cmCore", "RD", "OSR"},
	} {
		src, err := verify.Load(transport.Sources, "sublayered", verify.Scope{Sublayers: sublayers})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range src.CrossSublayer() {
			t.Errorf("%s: field of another sublayer", v)
		}
	}
}
