package overlay

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport/harness"
	"repro/internal/verify"
)

// Tier names one overlay workload.
type Tier string

// The three overlay tiers E13 matrixes over.
const (
	TierRPC    Tier = "rpc"
	TierDHT    Tier = "dht"
	TierGossip Tier = "gossip"
)

// Tiers lists every tier in matrix order.
func Tiers() []Tier { return []Tier{TierRPC, TierDHT, TierGossip} }

// Scenario is one cell of the fault axis: a named script builder
// parameterized on cluster size (scripts reference member addresses).
type Scenario struct {
	Name string
	// Heals reports whether every fault in the script heals — healing
	// scenarios must end with all operations resolved and gossip
	// converged; a run that doesn't is a watchdog violation.
	Heals bool
	Build func(nodes int) faults.Script
}

// Scenarios is the E13 fault axis, deliberately reusing the E10
// vocabulary on the cluster ring: clean baseline, Gilbert–Elliott
// bursty loss on one ring link, a healed two-member partition, and
// member churn — three staggered RouterPause windows, the overlay's
// join/leave model (state kept, reachability lost).
func Scenarios(nodes int) []Scenario {
	_ = nodes
	return []Scenario{
		{Name: "clean", Heals: true, Build: func(int) faults.Script {
			return faults.Script{Name: "clean"}
		}},
		{Name: "bursty-loss", Heals: true, Build: func(int) faults.Script {
			return faults.Script{Name: "bursty-loss", Steps: []faults.Step{
				{At: 0, For: 30 * time.Second, Fault: faults.BurstyLoss{A: 2, B: 3, GE: faults.GEConfig{
					MeanGood: 400 * time.Millisecond, MeanBad: 60 * time.Millisecond, LossBad: 0.4,
				}}},
			}}
		}},
		{Name: "partition-heal", Heals: true, Build: func(int) faults.Script {
			return faults.Script{Name: "partition-heal", Steps: []faults.Step{
				{At: time.Second, For: 3 * time.Second, Fault: faults.Partition{Nodes: []network.Addr{3, 4}}},
			}}
		}},
		{Name: "churn", Heals: true, Build: func(n int) faults.Script {
			// Three members cycle out and back, one at a time, windows
			// disjoint so the ring always routes around the hole.
			s := faults.Script{Name: "churn"}
			victims := []network.Addr{3, network.Addr(n - 2), 2}
			at := 2 * time.Second
			for _, v := range victims {
				if int(v) > n || v < 1 {
					continue
				}
				s.Steps = append(s.Steps, faults.Step{
					At: at, For: 1500 * time.Millisecond, Fault: faults.RouterPause{Addr: v},
				})
				at += 3 * time.Second
			}
			return s
		}},
	}
}

// RunConfig is one E13 cell: a tier on a stack under a scenario.
type RunConfig struct {
	Seed    int64
	Backend string
	Kind    harness.Kind
	// Nodes is the cluster size (default 8).
	Nodes    int
	Tier     Tier
	Scenario Scenario
	// Budget bounds the run (default 60s virtual / 20s wall).
	Budget time.Duration
	// Metrics receives every instrument (created when nil).
	Metrics *metrics.Registry
}

// RunResult is one cell's outcome: the tier metrics E13 tabulates,
// the watchdog verdict, and the registry snapshot for folding.
type RunResult struct {
	Tier     Tier
	Scenario string
	// Issued/Resolved/Missed count logical operations; for gossip,
	// Issued is rumors published and Resolved rumors fully disseminated.
	Issued, Resolved, Missed int
	// HopP50/HopP99 are per-lookup round counts (DHT tiers only).
	HopP50, HopP99 int
	// LatP50/LatP99 are call latencies (RPC tier only).
	LatP50, LatP99 time.Duration
	// ConvergeP50/ConvergeMax are per-rumor dissemination times
	// (gossip tier only): publish to last member's arrival.
	ConvergeP50, ConvergeMax time.Duration
	// MsgsPerOp is total overlay frames sent divided by Issued.
	MsgsPerOp  float64
	Retries    uint64
	DupReplies uint64
	// Violations folds watchdog, contract and tier-invariant failures.
	Violations []string
	Elapsed    time.Duration
	Snap       metrics.Snapshot
	Reg        *metrics.Registry
}

// MissRate is Missed/Issued.
func (r *RunResult) MissRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Issued)
}

// nodeRun is one member's workload state. It is written ONLY from that
// member's backend events (its shard), and read by the driver at Exec
// barriers — the same single-writer discipline the overlay itself uses,
// so a sharded run stays race-free and byte-deterministic.
type nodeRun struct {
	addr network.Addr
	node *Node
	dht  *DHT
	gsp  *Gossip

	issued, okOps, missed int
	hops                  []int
	lats                  []time.Duration
	// wrongWant/wrongGot hold the first value mismatch (a real
	// invariant violation, unlike a miss) for the watchdog barrier.
	wrong               int
	wrongWant, wrongGot []byte
	phase               int // DHT: 0 join, 1 store, 2 get, 3 done
	opIdx               int
	pacer               *netsim.Repeater
	doneFlag            bool
}

// tierOps is a tier's per-member operation count: echo calls, keys
// stored and fetched, or rumors published.
func tierOps(tier Tier) int {
	if tier == TierRPC {
		return 12
	}
	return 4
}

// Run executes one E13 cell: build the member ring on the requested
// stack and backend, arm the fault script, drive the tier workload to
// completion (or budget), then check invariants and fold metrics.
func Run(cfg RunConfig) *RunResult {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 60 * time.Second
		if harness.Realtime(cfg.Backend) {
			cfg.Budget = 20 * time.Second
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	ccfg := harness.ClusterConfig{
		Seed: cfg.Seed, Backend: cfg.Backend, Nodes: cfg.Nodes,
		Kind: cfg.Kind, Metrics: reg,
	}
	if cfg.Kind != harness.KindMonolithic {
		ccfg.Contracts = func(network.Addr) *verify.Checker {
			return verify.NewChecker(verify.ModeRecord)
		}
	}
	cl := harness.BuildCluster(ccfg)
	defer cl.Close()

	wd := faults.NewWatchdog()
	runs := make([]*nodeRun, 0, cfg.Nodes)
	ops := tierOps(cfg.Tier)
	cl.Exec(func() {
		wd.BindMetrics(reg.Scope("watchdog"))
		inj := faults.New(cl.Sim, cl.Topo, cfg.Seed+1000)
		inj.BindMetrics(reg.Scope("faults"))
		inj.MustApply(cfg.Scenario.Build(cfg.Nodes))
		members := make([]network.Addr, 0, cfg.Nodes)
		for _, h := range cl.Hosts {
			members = append(members, h.Addr)
		}
		for i := range cl.Hosts {
			h := &cl.Hosts[i]
			n, err := NewNode(h.B, h.Addr, h.Stack, NodeConfig{
				Seed:    cfg.Seed,
				Metrics: reg.Scope(fmt.Sprintf("n%d/overlay", h.Addr)),
			})
			if err != nil {
				panic(err)
			}
			nr := &nodeRun{addr: h.Addr, node: n}
			runs = append(runs, nr)
			switch cfg.Tier {
			case TierRPC:
				startRPC(nr, members, ops)
			case TierDHT:
				nr.dht = NewDHT(n, DHTConfig{
					Metrics: reg.Scope(fmt.Sprintf("n%d/dht", h.Addr)),
				})
				startDHT(nr, cfg.Nodes, ops)
			case TierGossip:
				nr.gsp = NewGossip(n, members, GossipConfig{
					Metrics: reg.Scope(fmt.Sprintf("n%d/gossip", h.Addr)),
				})
				startGossip(nr, ops)
			default:
				panic("overlay: unknown tier " + string(cfg.Tier))
			}
		}
	})

	base := cl.Sim.Now()
	harness.RunUntil(cl.Sim, cfg.Budget, func() bool { return allDone(cfg.Tier, runs, cfg.Nodes*ops) })

	var res *RunResult
	cl.Exec(func() { res = summarize(cfg, cl, runs, wd, reg, base) })
	return res
}

// --- tier workloads (all state machines live in node-event context) ---

// startRPC paces ops echo calls per member, round-robin over the other
// members, and verifies every reply byte-for-byte.
func startRPC(nr *nodeRun, members []network.Addr, ops int) {
	var others []network.Addr
	for _, m := range members {
		if m != nr.addr {
			others = append(others, m)
		}
	}
	n := nr.node
	n.Handle(KindEcho, func(_ network.Addr, p []byte) []byte { return p })
	// 250ms pacing stretches the call window past the first churn
	// RouterPause (2s–3.5s), so the churn scenario actually exercises
	// RPC retries instead of finishing before the fault arrives.
	nr.pacer = n.B.Every(250*time.Millisecond, func() {
		if nr.issued >= ops {
			nr.pacer.Stop()
			return
		}
		nr.issued++
		to := others[(int(nr.addr)+nr.issued)%len(others)]
		payload := fmt.Appendf(nil, "echo-%d-%d-padding-to-make-the-frame-nontrivial", nr.addr, nr.issued)
		start := n.B.Now()
		n.Call(to, KindEcho, payload, 2*time.Second, func(resp []byte, err error) {
			if err != nil {
				nr.missed++
				nr.checkDone(ops)
				return
			}
			if !bytes.Equal(resp, payload) {
				nr.noteWrong(payload, resp)
			} else {
				nr.okOps++
			}
			nr.lats = append(nr.lats, time.Duration(n.B.Now()-start))
			nr.checkDone(ops)
		})
	})
}

// startDHT staggers the member's bootstrap join, then stores ops keys
// under its own prefix and fetches the ring successor's keys —
// sequential, completion-paced, hop counts recorded per lookup.
func startDHT(nr *nodeRun, nodes, ops int) {
	n := nr.node
	succ := network.Addr(int(nr.addr)%nodes + 1)
	n.B.Schedule(time.Duration(nr.addr)*50*time.Millisecond, func() {
		nr.dht.Join([]network.Addr{1, succ}, nil)
	})
	// Stores wait for a global bootstrap barrier: a member that stores
	// the instant its own join finishes would pick replicas from a
	// membership that hasn't finished arriving, and the true k-closest
	// member for a key might not be in the DHT yet.
	n.B.Schedule(3*time.Second, func() {
		nr.phase = 1
		nr.dhtNext(nodes, ops)
	})
}

func dhtKey(owner network.Addr, i int) string { return fmt.Sprintf("n%d/k%d", owner, i) }
func dhtValue(key string) []byte              { return []byte("v:" + key) }

func (nr *nodeRun) dhtNext(nodes, ops int) {
	succ := network.Addr(int(nr.addr)%nodes + 1)
	switch nr.phase {
	case 1: // store own keys
		if nr.opIdx >= ops {
			nr.phase, nr.opIdx = 2, 0
			// Let the rest of the membership land its stores (and any
			// fault window pass) before reading keys back — immediate
			// gets would measure the stagger, not the DHT.
			nr.node.B.Schedule(8*time.Second, func() { nr.dhtNext(nodes, ops) })
			return
		}
		key := dhtKey(nr.addr, nr.opIdx)
		nr.opIdx++
		nr.issued++
		nr.dht.Store(key, dhtValue(key), func(stored, rounds int) {
			nr.hops = append(nr.hops, rounds)
			if stored > 0 {
				nr.okOps++
			} else {
				nr.missed++
			}
			nr.dhtNext(nodes, ops)
		})
	case 2: // fetch the successor's keys
		if nr.opIdx >= ops {
			nr.phase = 3
			nr.checkDone(2 * ops)
			return
		}
		key := dhtKey(succ, nr.opIdx)
		nr.opIdx++
		nr.issued++
		nr.dht.Get(key, func(value []byte, rounds int, found bool) {
			nr.hops = append(nr.hops, rounds)
			switch {
			case !found:
				nr.missed++
			case !bytes.Equal(value, dhtValue(key)):
				nr.noteWrong(dhtValue(key), value)
			default:
				nr.okOps++
			}
			nr.dhtNext(nodes, ops)
		})
	}
}

// startGossip paces ops rumor publications per member; dissemination
// and repair run on the gossip layer's own timers.
func startGossip(nr *nodeRun, ops int) {
	nr.pacer = nr.node.B.Every(200*time.Millisecond, func() {
		if nr.issued >= ops {
			nr.pacer.Stop()
			return
		}
		nr.issued++
		nr.gsp.Publish(fmt.Appendf(nil, "r-%d-%d", nr.addr, nr.issued))
	})
}

func (nr *nodeRun) noteWrong(want, got []byte) {
	nr.wrong++
	if nr.wrongWant == nil {
		nr.wrongWant = append([]byte(nil), want...)
		nr.wrongGot = append([]byte(nil), got...)
	}
}

func (nr *nodeRun) checkDone(total int) {
	if nr.okOps+nr.missed+nr.wrong >= total {
		nr.doneFlag = true
	}
}

// allDone runs at an Exec barrier, where cross-member reads are safe.
func allDone(tier Tier, runs []*nodeRun, totalRumors int) bool {
	for _, nr := range runs {
		switch tier {
		case TierGossip:
			if nr.issued < totalRumors/len(runs) || nr.gsp.Count() < totalRumors {
				return false
			}
		default:
			if !nr.doneFlag {
				return false
			}
		}
	}
	return true
}

// --- summary (Exec barrier: all shards stopped, cross-member reads ok) ---

func summarize(cfg RunConfig, cl *harness.Cluster, runs []*nodeRun, wd *faults.Watchdog,
	reg *metrics.Registry, base netsim.Time) *RunResult {
	res := &RunResult{Tier: cfg.Tier, Scenario: cfg.Scenario.Name, Reg: reg,
		Elapsed: time.Duration(cl.Sim.Now() - base)}

	var hops []int
	var lats []time.Duration
	var framesOut uint64
	for _, nr := range runs {
		res.Issued += nr.issued
		res.Resolved += nr.okOps
		res.Missed += nr.missed
		hops = append(hops, nr.hops...)
		lats = append(lats, nr.lats...)
		fo, _ := nr.node.MsgStats()
		framesOut += fo
		_, _, _, retries, dups := nr.node.CallStats()
		res.Retries += retries
		res.DupReplies += dups
		if nr.wrong > 0 {
			// A wrong payload is never acceptable, faults or not — the
			// watchdog renders it as a stream-divergence violation.
			wd.CheckComplete(fmt.Sprintf("n%d/%s/value", nr.addr, cfg.Tier), nr.wrongWant, nr.wrongGot)
		}
	}
	sort.Ints(hops)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.HopP50, res.HopP99 = pctInt(hops, 50), pctInt(hops, 99)
	res.LatP50, res.LatP99 = pctDur(lats, 50), pctDur(lats, 99)

	if cfg.Tier == TierGossip {
		summarizeGossip(cfg, runs, wd, res)
	}
	if res.Issued > 0 {
		res.MsgsPerOp = float64(framesOut) / float64(res.Issued)
	}
	// Healing scenarios owe a fully resolved workload: every RPC/DHT op
	// answered (misses allowed only while faults were live — by the end
	// of the budget the retry machinery must have drained the backlog
	// into resolutions, not left calls hanging).
	if cfg.Scenario.Heals && cfg.Tier != TierGossip {
		for _, nr := range runs {
			if !nr.doneFlag {
				wd.CheckComplete(fmt.Sprintf("n%d/%s/resolved", nr.addr, cfg.Tier),
					[]byte("all-ops-resolved"), []byte{})
			}
		}
	}
	for _, h := range cl.Hosts {
		if ck := cl.Checkers[h.Addr]; ck != nil {
			wd.CheckContracts(fmt.Sprintf("n%d", h.Addr), ck)
		}
	}
	res.Violations = append(res.Violations, wd.Violations()...)
	res.Snap = reg.Snapshot()
	return res
}

// summarizeGossip computes per-rumor convergence: publish stamp at the
// origin, arrival stamps everywhere else, convergence = the gap to the
// last member. An unconverged rumor in a healing scenario is a
// violation — anti-entropy must have repaired it after the heal.
func summarizeGossip(cfg RunConfig, runs []*nodeRun, wd *faults.Watchdog, res *RunResult) {
	var conv []time.Duration
	converged := 0
	for _, origin := range runs {
		for seq := uint32(1); seq <= uint32(origin.issued); seq++ {
			pub, ok := origin.gsp.Have(origin.addr, seq)
			if !ok {
				continue
			}
			var last netsim.Time
			all := true
			for _, nr := range runs {
				arr, have := nr.gsp.Have(origin.addr, seq)
				if !have {
					all = false
					break
				}
				if arr > last {
					last = arr
				}
			}
			if !all {
				if cfg.Scenario.Heals {
					wd.CheckComplete(fmt.Sprintf("rumor %d/%d disseminated", origin.addr, seq),
						[]byte("everywhere"), []byte{})
				}
				continue
			}
			converged++
			conv = append(conv, time.Duration(last-pub))
		}
	}
	sort.Slice(conv, func(i, j int) bool { return conv[i] < conv[j] })
	res.Resolved = converged
	res.Missed = res.Issued - converged
	res.ConvergeP50 = pctDur(conv, 50)
	if len(conv) > 0 {
		res.ConvergeMax = conv[len(conv)-1]
	}
}

// pctDur is nearest-rank over an ascending slice.
func pctDur(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func pctInt(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
