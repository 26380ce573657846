package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/transport/harness"
	"repro/internal/verify"
)

// The closed-loop echo driver for rpc-rt: each caller keeps exactly one
// overlay.Node.Call outstanding and issues the next from the reply
// callback, rotating over the other members. The same driver runs on
// the wall-clock channel backend (the timed phases) and on sim/sharded
// (the rt.sim_* and sharded.* layer rows), so "the same calls" means
// the same code.

// rpcWallBudget bounds the wall-clock wait for one real-time rep.
const rpcWallBudget = 90 * time.Second

// caller is one closed-loop client. Its fields are written only from
// its own node's callbacks (single-writer, as on the sharded engine).
type caller struct {
	node     *overlay.Node
	b        netsim.Backend
	spec     *rpcSpec
	sp       *spans
	key      uint64
	targets  []network.Addr
	hops     map[network.Addr]int
	warm     map[network.Addr]bool
	realtime bool

	issued, ok, failed int
	done               bool
	doneAt             netsim.Time
	latMs, overheadUs  []float64
	notify             chan<- struct{}
}

func (c *caller) issue() {
	to := c.targets[c.issued%len(c.targets)]
	payload := make([]byte, c.spec.payload)
	fillStream(c.key+uint64(c.issued)<<8, 0, payload)
	c.issued++
	start := time.Now()
	c.sp.begin(spanWrite)
	c.node.Call(to, overlay.KindEcho, payload, c.spec.deadline, func(resp []byte, err error) {
		lat := time.Since(start)
		c.sp.begin(spanReadVerify)
		good := err == nil && bytes.Equal(resp, payload)
		c.sp.end()
		if good {
			c.ok++
		} else {
			c.failed++
		}
		// The first call to a peer pays the dial and handshake; it is
		// counted as an operation but kept out of the latency samples.
		if c.warm[to] {
			if c.realtime && good {
				c.latMs = append(c.latMs, lat.Seconds()*1e3)
				wire := 2 * time.Duration(c.hops[to]) * c.spec.link.Delay
				c.overheadUs = append(c.overheadUs, float64(lat-wire)/1e3)
			}
		} else {
			c.warm[to] = true
		}
		if c.issued < c.spec.calls {
			c.issue()
			return
		}
		c.done, c.doneAt = true, c.b.Now()
		if c.notify != nil {
			c.notify <- struct{}{}
		}
	})
	c.sp.end()
}

// ringHops is the hop count between two members of BuildCluster's
// N-ring (the closing edge costs 2, which for N = 4 never changes the
// shorter way round).
func ringHops(a, b network.Addr, n int) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

func runRPC(ps phaseSpec, spec rpcSpec) (phaseResult, error) {
	sp := ps.sp
	rt := harness.Realtime(ps.backend)
	res := phaseResult{realtime: rt}
	t0 := time.Now()

	sp.begin(spanSetup) // no backend goroutine exists yet
	reg := metrics.New()
	ccfg := harness.ClusterConfig{Seed: ps.seed, Backend: ps.backend, Nodes: spec.nodes,
		Link: spec.link, Kind: ps.kind, Metrics: reg}
	if ps.contracts {
		ccfg.Contracts = func(network.Addr) *verify.Checker { return verify.NewChecker(verify.ModeRecord) }
	}
	cl := harness.BuildCluster(ccfg)
	res.buildMs = time.Since(t0).Seconds() * 1e3
	res.convergeEvents = cl.Sim.Steps()
	// From here on the real-time backend runs callbacks on its own
	// goroutines: the driver touches spans only under the backend lock.
	cl.Exec(func() { sp.end() })

	notify := make(chan struct{}, len(spec.callers))
	var callers []*caller
	var err error
	cl.Exec(func() {
		sp.begin(spanPlan)
		defer sp.end()
		if sp != nil {
			cl.Sim.SetTracer(sp)
		}
		if ps.recorder {
			attachRecorder(cl.Sim, cl.Topo)
		}
		nodes := make(map[network.Addr]*overlay.Node)
		for i := range cl.Hosts {
			h := &cl.Hosts[i]
			n, e := overlay.NewNode(h.B, h.Addr, h.Stack, overlay.NodeConfig{Seed: ps.seed,
				Metrics: reg.Scope(fmt.Sprintf("n%d", h.Addr)).Sub("overlay")})
			if e != nil {
				err = e
				return
			}
			n.Handle(overlay.KindEcho, func(_ network.Addr, p []byte) []byte { return p })
			nodes[h.Addr] = n
		}
		for _, a := range spec.callers {
			addr := network.Addr(a)
			c := &caller{node: nodes[addr], b: cl.Host(addr).B, spec: &spec, sp: sp, realtime: rt,
				key: mix64(uint64(ps.seed)<<20 ^ uint64(a)), hops: map[network.Addr]int{}, warm: map[network.Addr]bool{}}
			if rt {
				c.notify = notify
			}
			for i := range cl.Hosts {
				if o := cl.Hosts[i].Addr; o != addr {
					c.targets = append(c.targets, o)
					c.hops[o] = ringHops(addr, o, spec.nodes)
				}
			}
			callers = append(callers, c)
		}
	})
	if err != nil {
		cl.Close()
		return res, err
	}
	var before metrics.Snapshot
	if ps.counts {
		cl.Exec(func() { before = reg.Snapshot() })
	}
	res.instrumentsAtStart = reg.Len()
	res.setupS = time.Since(t0).Seconds()

	// The same calls on a virtual-time engine are probed like any other
	// virtual-time phase; on the wall clock there is nothing to scale.
	var pr *probe
	if !rt {
		pr = theProbe()
		pr.reset()
	}
	m := startMeter(cl.Sim.Steps())
	cl.Exec(func() {
		sp.begin(spanStart)
		for _, c := range callers {
			c.issue()
		}
		sp.end()
		sp.begin(spanRunSlice)
	})
	if rt {
		timeout := time.After(rpcWallBudget)
	wait:
		for range callers {
			select {
			case <-notify:
			case <-timeout:
				res.watchdog = true
				break wait
			}
		}
	} else {
		deadline := cl.Sim.Now() + netsim.Time(graceVirtual)
		for {
			open := false
			cl.Exec(func() {
				for _, c := range callers {
					if !c.done {
						open = true
					}
				}
			})
			if !open {
				break
			}
			if cl.Sim.Now() >= deadline {
				res.watchdog = true
				break
			}
			cl.Sim.RunFor(slice)
			pr.tick(nil)
		}
	}
	m.stop(cl.Sim.Steps(), &res)
	if pr != nil {
		res.takeProbe(pr)
	}

	cl.Exec(func() {
		sp.end() // run_slice
		sp.begin(spanCheck)
		d := newDigester()
		for _, c := range callers {
			res.ops += spec.calls
			res.failed += spec.calls - c.ok
			res.bytes += int64(2 * spec.payload * c.ok)
			res.latMs = append(res.latMs, c.latMs...)
			res.overheadUs = append(res.overheadUs, c.overheadUs...)
			d.put(uint64(c.doneAt))
		}
		res.instruments = reg.Len()
		ts := time.Now()
		snap := reg.Snapshot()
		res.snapshotMs = time.Since(ts).Seconds() * 1e3
		if !rt {
			d.put(cl.Sim.Steps())
			d.snapshot(snap)
			res.digest = d.sum()
		}
		if ps.counts {
			res.counts = sumCounts(snap.Diff(before))
		}
		for _, ck := range cl.Checkers {
			res.checks += ck.Checks()
			res.violations += len(ck.Violations())
		}
		sp.end()
		sp.begin(spanClose)
		cl.Sim.SetTracer(nil)
		for i := range cl.Hosts {
			cl.Hosts[i].Stack.Close()
		}
	})
	drain := time.Second
	if rt {
		drain = 50 * time.Millisecond
	}
	drainWorld(cl.Sim, cl.Topo, drain)
	cl.Close()
	sp.end() // close: the backend is stopped, no callback can run
	return res, nil
}
