package overlay

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport/harness"
)

func TestCodecRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendFrame(buf, classRequest, KindEcho, 42, 7, []byte("hello"))
	buf = appendFrame(buf, classResponse, KindFindNode, 43, 9, nil)
	f, used, err := parseFrame(buf)
	if err != nil || used != headerLen+5 {
		t.Fatalf("parse 1: used=%d err=%v", used, err)
	}
	if f.class != classRequest || f.kind != KindEcho || f.reqID != 42 || f.from != 7 || string(f.payload) != "hello" {
		t.Fatalf("frame 1 mismatch: %+v", f)
	}
	buf = buf[used:]
	f, used, err = parseFrame(buf)
	if err != nil || used != headerLen {
		t.Fatalf("parse 2: used=%d err=%v", used, err)
	}
	if f.class != classResponse || f.reqID != 43 || len(f.payload) != 0 {
		t.Fatalf("frame 2 mismatch: %+v", f)
	}
}

func TestCodecPartialAndBad(t *testing.T) {
	full := appendFrame(nil, classCast, KindRumor, 0, 3, []byte("abcdef"))
	for cut := 0; cut < len(full); cut++ {
		if _, used, err := parseFrame(full[:cut]); used != 0 || err != nil {
			t.Fatalf("cut=%d: used=%d err=%v, want partial", cut, used, err)
		}
	}
	bad := append([]byte(nil), full...)
	bad[0] = 0xFF
	if _, _, err := parseFrame(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), full...)
	bad[1] = 0x7F
	if _, _, err := parseFrame(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestIDBuckets(t *testing.T) {
	a, b := NodeID(1), NodeID(2)
	if a == b {
		t.Fatal("distinct addrs share an ID")
	}
	if a.bucketIndex(a) != -1 {
		t.Fatal("self bucket must be -1")
	}
	i := a.bucketIndex(b)
	if i < 0 || i > 159 {
		t.Fatalf("bucket index %d out of range", i)
	}
	addrs := []network.Addr{5, 2, 8, 3}
	sortByDistance(addrs, NodeID(5))
	if addrs[0] != 5 {
		t.Fatalf("self not closest to own ID: %v", addrs)
	}
}

func clean() Scenario { return Scenarios(8)[0] }

func TestRPCCleanSim(t *testing.T) {
	res := Run(RunConfig{Seed: 1, Tier: TierRPC, Scenario: clean(), Kind: harness.KindSublayeredNative})
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Issued != 8*12 || res.Resolved != res.Issued || res.Missed != 0 {
		t.Fatalf("issued=%d resolved=%d missed=%d", res.Issued, res.Resolved, res.Missed)
	}
	if res.LatP50 <= 0 || res.MsgsPerOp <= 0 {
		t.Fatalf("latency/msgs not measured: %+v", res)
	}
}

func TestDHTCleanSim(t *testing.T) {
	res := Run(RunConfig{Seed: 2, Tier: TierDHT, Scenario: clean(), Kind: harness.KindSublayeredNative})
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Issued != 8*8 {
		t.Fatalf("issued=%d", res.Issued)
	}
	if res.Missed != 0 {
		t.Fatalf("clean DHT run missed %d ops", res.Missed)
	}
	if res.HopP50 < 1 {
		t.Fatalf("hop p50 %d, want >= 1", res.HopP50)
	}
}

func TestGossipCleanSim(t *testing.T) {
	res := Run(RunConfig{Seed: 3, Tier: TierGossip, Scenario: clean(), Kind: harness.KindMonolithic})
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Resolved != res.Issued || res.Missed != 0 {
		t.Fatalf("converged %d of %d rumors", res.Resolved, res.Issued)
	}
	if res.ConvergeMax <= 0 {
		t.Fatal("convergence not measured")
	}
}

func TestDeterminismSimVsSharded(t *testing.T) {
	for _, tier := range Tiers() {
		key := func(backend string) string {
			res := Run(RunConfig{Seed: 11, Backend: backend, Tier: tier,
				Scenario: Scenarios(8)[3], Kind: harness.KindSublayeredNative})
			return fmt.Sprintf("%d/%d/%d hops=%d/%d lat=%v/%v conv=%v/%v msgs=%.3f retries=%d dups=%d viol=%d",
				res.Issued, res.Resolved, res.Missed, res.HopP50, res.HopP99,
				res.LatP50, res.LatP99, res.ConvergeP50, res.ConvergeMax,
				res.MsgsPerOp, res.Retries, res.DupReplies, len(res.Violations))
		}
		sim, sharded := key("sim"), key("sharded:4")
		if sim != sharded {
			t.Fatalf("%s: sim %q != sharded:4 %q", tier, sim, sharded)
		}
	}
}

// TestDHTJoinLeaveMidLookup drives the churn model at the protocol
// level: a batch of multi-round lookups is in flight when one member
// pauses (leave: state kept, reachability lost) and another joins the
// ring for the first time. Every lookup must terminate exactly once
// within the round bound, every value must still be found — K=4
// replicas tolerate one paused holder — and the late joiner must be
// able to resolve keys stored before it existed.
func TestDHTJoinLeaveMidLookup(t *testing.T) {
	cl := harness.BuildCluster(harness.ClusterConfig{Seed: 21, Nodes: 8, Kind: harness.KindSublayeredNative})
	defer cl.Close()

	const keys = 6
	dhts := make(map[network.Addr]*DHT)
	gets := make(map[string]int) // key -> callback count
	founds := make(map[string]bool)
	var lateFound bool
	var lateCalls int
	cl.Exec(func() {
		inj := faults.New(cl.Sim, cl.Topo, 99)
		// Member 5 leaves (pauses) just as the lookup batch launches.
		inj.MustApply(faults.Script{Name: "leave", Steps: []faults.Step{
			{At: 4 * time.Second, For: 1500 * time.Millisecond, Fault: faults.RouterPause{Addr: 5}},
		}})
		for _, h := range cl.Hosts {
			n, err := NewNode(h.B, h.Addr, h.Stack, NodeConfig{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			dhts[h.Addr] = NewDHT(n, DHTConfig{})
			if h.Addr != 8 {
				// Members 1..7 bootstrap immediately; 8 joins mid-lookup.
				addr := h.Addr
				n.B.Schedule(time.Duration(addr)*20*time.Millisecond, func() {
					dhts[addr].Join([]network.Addr{1}, nil)
				})
			}
		}
		// Keys land once the initial membership has settled.
		cl.Hosts[0].B.Schedule(2*time.Second, func() {
			for j := 0; j < keys; j++ {
				key := dhtKey(1, j)
				dhts[1].Store(key, dhtValue(key), nil)
			}
		})
		// The lookup batch: all keys at once, so several iterative
		// lookups are mid-flight when the pause and the join hit.
		cl.Host(2).B.Schedule(4*time.Second, func() {
			for j := 0; j < keys; j++ {
				key := dhtKey(1, j)
				dhts[2].Get(key, func(value []byte, rounds int, found bool) {
					gets[key]++
					if found && bytes.Equal(value, dhtValue(key)) {
						founds[key] = true
					}
					if rounds > maxRounds {
						t.Errorf("get %s took %d rounds", key, rounds)
					}
				})
			}
		})
		cl.Host(8).B.Schedule(4020*time.Millisecond, func() {
			dhts[8].Join([]network.Addr{1, 4}, func() {
				// Joined mid-churn: the fresh member resolves a key
				// stored long before it existed.
				dhts[8].Get(dhtKey(1, 0), func(value []byte, _ int, found bool) {
					lateCalls++
					lateFound = found && bytes.Equal(value, dhtValue(dhtKey(1, 0)))
				})
			})
		})
	})
	cl.Sim.RunFor(20 * time.Second)
	cl.Exec(func() {
		for j := 0; j < keys; j++ {
			key := dhtKey(1, j)
			if gets[key] != 1 {
				t.Errorf("get %s: callback ran %d times, want exactly 1", key, gets[key])
			}
			if !founds[key] {
				t.Errorf("get %s: value not found despite 3 live replicas", key)
			}
		}
		if lateCalls != 1 || !lateFound {
			t.Errorf("late joiner: calls=%d found=%v, want 1/true", lateCalls, lateFound)
		}
	})
}

// TestGossipPartitionHealConverges runs the gossip tier through a hard
// partition in E10's fault vocabulary: half the ring is cut off while
// every member publishes, so rumors pile up on both sides of the
// split. After the heal, anti-entropy must resume convergence — every
// rumor everywhere, zero watchdog violations — and the convergence
// tail must visibly span the partition window (dissemination resumed,
// not restarted).
func TestGossipPartitionHealConverges(t *testing.T) {
	part := 6 * time.Second
	sc := Scenario{Name: "hard-partition-heal", Heals: true, Build: func(int) faults.Script {
		return faults.Script{Name: "hard-partition-heal", Steps: []faults.Step{
			{At: 500 * time.Millisecond, For: part, Fault: faults.Partition{Nodes: []network.Addr{5, 6, 7, 8}}},
		}}
	}}
	res := Run(RunConfig{Seed: 31, Tier: TierGossip, Scenario: sc, Kind: harness.KindSublayeredNative})
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Resolved != res.Issued || res.Missed != 0 {
		t.Fatalf("converged %d of %d rumors after heal", res.Resolved, res.Issued)
	}
	if res.ConvergeMax < part {
		t.Fatalf("convergence max %v shorter than the %v partition — the split never bit", res.ConvergeMax, part)
	}
}

func TestRPCLateReplySuppressed(t *testing.T) {
	// Force the retry race: the round trip on a slow ring is far above
	// the attempt timeout, so the client resends while the first reply
	// is still in flight. Both replies carry the same request id; the
	// first completes the call, the second must be suppressed and
	// counted — never delivered to the callback twice.
	cl := harness.BuildCluster(harness.ClusterConfig{
		Seed: 7, Nodes: 2, Kind: harness.KindSublayeredNative,
		Link: netsim.LinkConfig{Delay: 150 * time.Millisecond},
	})
	defer cl.Close()
	var a, b *Node
	completions, dups := 0, 0
	cl.Exec(func() {
		var err error
		a, err = NewNode(cl.Hosts[0].B, 1, cl.Hosts[0].Stack, NodeConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err = NewNode(cl.Hosts[1].B, 2, cl.Hosts[1].Stack, NodeConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Handshake, request and reply cross the 150ms link four times:
		// the first reply is still in flight when the 250ms attempt
		// timeout resends — a guaranteed retry race.
		b.Handle(KindEcho, func(_ network.Addr, p []byte) []byte { return p })
		a.Call(2, KindEcho, []byte("once"), 2*time.Second, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			if !bytes.Equal(resp, []byte("once")) {
				t.Errorf("bad echo %q", resp)
			}
			completions++
		})
	})
	cl.Sim.RunFor(5 * time.Second)
	cl.Exec(func() {
		_, _, _, retries, d := a.CallStats()
		if retries == 0 {
			t.Error("expected at least one retry")
		}
		dups = int(d)
	})
	if completions != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", completions)
	}
	if dups == 0 {
		t.Fatal("expected duplicate replies to be counted")
	}
}
