package harness

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

func randBytes(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func nastyLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
		LossProb: 0.04, DupProb: 0.02, ReorderProb: 0.04,
	}
}

// TestE4InteropMatrix is the paper's challenge 2: the 2×2 (plus native)
// matrix of implementations transfers byte streams correctly in both
// directions. Sublayered endpoints use the shim whenever the peer might
// be a standard TCP.
func TestE4InteropMatrix(t *testing.T) {
	kinds := []Kind{KindSublayeredShim, KindMonolithic}
	seed := int64(40)
	for _, ck := range kinds {
		for _, sk := range kinds {
			ck, sk := ck, sk
			seed++
			s := seed
			t.Run(ck.String()+"→"+sk.String(), func(t *testing.T) {
				w := BuildWorld(WorldConfig{Seed: s, Link: nastyLink(), Client: ck, Server: sk})
				up := randBytes(60_000, s)
				down := randBytes(40_000, s+100)
				res, err := RunTransfer(w, up, down, 5*time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.ServerGot, up) {
					t.Fatalf("upstream: %d of %d bytes", len(res.ServerGot), len(up))
				}
				if !bytes.Equal(res.ClientGot, down) {
					t.Fatalf("downstream: %d of %d bytes", len(res.ClientGot), len(down))
				}
				if !res.ServerEOF || !res.ClientEOF {
					t.Error("missing EOFs")
				}
				if res.ClientErr != nil || res.ServerErr != nil {
					t.Errorf("close errors: %v / %v", res.ClientErr, res.ServerErr)
				}
			})
		}
	}
}

// TestNativeMatrix: the sublayered-native wire format between two
// sublayered endpoints, same workload.
func TestNativeMatrix(t *testing.T) {
	w := BuildWorld(WorldConfig{Seed: 77, Link: nastyLink(),
		Client: KindSublayeredNative, Server: KindSublayeredNative})
	up := randBytes(60_000, 1)
	res, err := RunTransfer(w, up, nil, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.ServerGot, up) {
		t.Fatalf("native: %d of %d", len(res.ServerGot), len(up))
	}
}

// TestInteropCleanLinkFast: on a clean link every pairing finishes a
// 100 KB transfer in seconds of virtual time (sanity on timers).
func TestInteropCleanLinkFast(t *testing.T) {
	for _, pair := range [][2]Kind{
		{KindSublayeredShim, KindMonolithic},
		{KindMonolithic, KindSublayeredShim},
	} {
		w := BuildWorld(WorldConfig{Seed: 9, Link: netsim.LinkConfig{Delay: 2 * time.Millisecond},
			Client: pair[0], Server: pair[1]})
		data := randBytes(100_000, 3)
		res, err := RunTransfer(w, data, nil, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.ServerGot, data) {
			t.Fatalf("%s→%s failed (%d bytes)", pair[0], pair[1], len(res.ServerGot))
		}
		if res.Elapsed > 20*time.Second {
			t.Errorf("%s→%s took %v of virtual time", pair[0], pair[1], res.Elapsed)
		}
	}
}

// TestShimTranslationsHappen: the shim is genuinely in the path.
func TestShimTranslationsHappen(t *testing.T) {
	w := BuildWorld(WorldConfig{Seed: 10, Link: netsim.LinkConfig{Delay: time.Millisecond},
		Client: KindSublayeredShim, Server: KindMonolithic})
	data := randBytes(10_000, 4)
	if _, err := RunTransfer(w, data, nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	// Reach into the sublayered stack: its DM must have used the shim.
	sub := w.Client.(*Sublayered)
	if sub.Stack.Config().UseShim != true {
		t.Fatal("client not in shim mode")
	}
}

func TestWorldServerAddr(t *testing.T) {
	w := BuildWorld(WorldConfig{Seed: 1, Link: netsim.LinkConfig{}, Client: KindSublayeredNative, Server: KindMonolithic})
	if w.ServerAddr() != 4 {
		t.Errorf("server addr = %v", w.ServerAddr())
	}
}
