package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/monolithic"
	"repro/internal/transport/sublayered"
)

// TestSharedOptionsSelectController proves controller selection is
// stack-agnostic: the same name in SubCfg.CC and MonoCfg.CC selects
// the congestion controller on the sublayered native stack, the shim,
// and the monolithic baseline — and across an interop pair where the
// two ends run different implementations of the same controller.
func TestSharedOptionsSelectController(t *testing.T) {
	kinds := []Kind{KindSublayeredNative, KindSublayeredShim, KindMonolithic}
	seed := int64(70)
	for _, k := range kinds {
		k := k
		seed++
		s := seed
		t.Run(k.String(), func(t *testing.T) {
			w := BuildWorld(WorldConfig{
				Seed: s, Link: nastyLink(), Client: k, Server: k,
				SubCfg:  sublayered.Config{CC: "cubic"},
				MonoCfg: monolithic.Config{CC: "cubic"},
			})
			data := randBytes(60_000, s)
			res, err := RunTransfer(w, data, nil, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.ServerGot, data) {
				t.Fatalf("transfer: %d of %d bytes", len(res.ServerGot), len(data))
			}
			if got := connCCName(t, res.ClientConn); got != "cubic" {
				t.Errorf("client controller = %q, want cubic", got)
			}
		})
	}
	// Cross-implementation: shim client, monolithic server, one name.
	w := BuildWorld(WorldConfig{
		Seed: 99, Link: nastyLink(), Client: KindSublayeredShim, Server: KindMonolithic,
		SubCfg:  sublayered.Config{CC: "bbrlite"},
		MonoCfg: monolithic.Config{CC: "bbrlite"},
	})
	data := randBytes(60_000, 99)
	res, err := RunTransfer(w, data, nil, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.ServerGot, data) {
		t.Fatalf("interop transfer: %d of %d bytes", len(res.ServerGot), len(data))
	}
	if got := connCCName(t, res.ClientConn); got != "bbrlite" {
		t.Errorf("interop client controller = %q, want bbrlite", got)
	}
}

// connCCName extracts the controller name from either endpoint flavor.
func connCCName(t *testing.T, e transport.Conn) string {
	t.Helper()
	switch c := e.(type) {
	case *sublayered.Conn:
		return c.OSR().CC().Name()
	case *monolithic.PCB:
		return c.CC().Name()
	default:
		t.Fatalf("unknown connection type %T", e)
		return ""
	}
}
