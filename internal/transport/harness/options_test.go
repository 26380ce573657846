package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/network"
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
			cc := probeClientCC(w)
			res, err := RunTransfer(w, data, nil, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.ServerGot, data) {
				t.Fatalf("transfer: %d of %d bytes", len(res.ServerGot), len(data))
			}
			if got := cc.name; got != "cubic" {
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
	cc := probeClientCC(w)
	res, err := RunTransfer(w, data, nil, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.ServerGot, data) {
		t.Fatalf("interop transfer: %d of %d bytes", len(res.ServerGot), len(data))
	}
	if got := cc.name; got != "bbrlite" {
		t.Errorf("interop client controller = %q, want bbrlite", got)
	}
}

// ccProbe wraps a world's client stack so the connection it dials
// records its controller's name when it connects: a closed sublayered
// connection has given its controller back to its stack, so the name
// is read while the transfer's own connection holds it.
type ccProbe struct {
	transport.Stack
	name string
}

func (p *ccProbe) Dial(dst network.Addr, port uint16) (transport.Conn, error) {
	c, err := p.Stack.Dial(dst, port)
	if err != nil {
		return nil, err
	}
	return ccProbeConn{c, p}, nil
}

type ccProbeConn struct {
	transport.Conn
	p *ccProbe
}

func (c ccProbeConn) Callbacks(onConnected, onReadable, onWritable func(), onClosed func(error)) {
	c.Conn.Callbacks(func() {
		switch e := c.Conn.(type) {
		case *sublayered.Conn:
			c.p.name = e.OSR().CC().Name()
		case *monolithic.PCB:
			c.p.name = e.CC().Name()
		}
		onConnected()
	}, onReadable, onWritable, onClosed)
}

// probeClientCC makes w's client record the controller of the next
// connection it dials.
func probeClientCC(w *World) *ccProbe {
	p := &ccProbe{Stack: w.Client}
	w.Client = p
	return p
}
