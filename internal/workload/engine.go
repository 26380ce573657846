// Package workload is the many-flow traffic engine: it opens N
// concurrent connections (E11 targets 1,000+) with mixed transfer
// sizes and an on/off arrival schedule over one shared simulated
// topology, and reports aggregate goodput, the flow-completion-time
// distribution and Jain fairness. The engine drives both TCP
// implementations through the transport.Stack interface only — after
// harness.BuildWorld hands back the two stacks, nothing here knows
// which implementation is underneath, so the sublayered and monolithic
// stacks run the identical workload code path.
//
// Everything runs inside one deterministic simulator: the same Config
// (seed included) produces a byte-identical Report. Simulators share
// no state, so independent simulations may run on concurrent
// goroutines and still return what a serial run returns
// (TestRunSeedsParallelMatchesSerial).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/harness"
)

// Config describes one many-flow run.
type Config struct {
	// Seed drives the world and every per-flow choice.
	Seed int64
	// Backend selects the substrate ("sim" default, "chan", "udp").
	// On the real-time backends the run is paced by the wall clock and
	// the Report is no longer deterministic — Budget then bounds wall
	// time, so keep schedules compressed.
	Backend string
	// Flows is the number of connections to open (default 100).
	Flows int
	// Pairs spreads the flows round-robin over that many disjoint
	// client/server pairs in one world (default 1). On the sharded
	// backend the pairs land on different shards — the E16 scaling
	// shape. Simulator backends only.
	Pairs int
	// Client and Server select the stack implementations.
	Client, Server harness.Kind
	// Hops is the line-topology length (harness default 4).
	Hops int
	// Link overrides the shared path; the zero value means a
	// rate-limited 20 Mb/s, 1 ms/hop, 256-packet-queue bottleneck so
	// 1,000 flows actually contend (the completion-time tail visibly
	// stretches as the flow count scales 100×).
	Link netsim.LinkConfig
	// MinSize and MaxSize bound the per-flow transfer, drawn
	// log-uniformly (defaults 2 KiB and 32 KiB).
	MinSize, MaxSize int
	// OnPeriod/OffPeriod shape the arrival schedule: flows arrive
	// uniformly inside ON windows separated by silent OFF gaps
	// (defaults 2s on, 1s off), spread over Cycles windows (default 4).
	OnPeriod, OffPeriod time.Duration
	Cycles              int
	// Budget bounds virtual time (default 10 min).
	Budget time.Duration
	// Tracer, when non-nil, is attached to the run's simulator so every
	// packet's causal chain is recorded (E11's -trace mode). Tracing is
	// observational only: it never changes the Report.
	Tracer netsim.Tracer
	// CC selects the congestion controller by ccontrol name on
	// both end hosts ("" keeps each stack's default, newreno). The engine
	// sets it as SubCfg.CC and MonoCfg.CC, so the swap is invisible to
	// everything below this Config — the E12 bake-off axis.
	CC string
	// Script, when it has steps, is a fault schedule applied to the
	// world before any flow dials (E12's loss regimes). The injector's
	// RNG derives from Seed, so the failure history replays with the
	// report.
	Script faults.Script
}

func (c Config) withDefaults() Config {
	if c.Flows <= 0 {
		c.Flows = 100
	}
	if c.Pairs <= 0 {
		c.Pairs = 1
	}
	if c.Link == (netsim.LinkConfig{}) {
		c.Link = netsim.LinkConfig{Delay: time.Millisecond, RateBps: 20_000_000, QueueLimit: 256}
	}
	if c.MinSize <= 0 {
		c.MinSize = 2 * 1024
	}
	if c.MaxSize < c.MinSize {
		c.MaxSize = 32 * 1024
		if c.MaxSize < c.MinSize {
			c.MaxSize = c.MinSize
		}
	}
	if c.OnPeriod <= 0 {
		c.OnPeriod = 2 * time.Second
	}
	if c.OffPeriod <= 0 {
		c.OffPeriod = time.Second
	}
	if c.Cycles <= 0 {
		c.Cycles = 4
	}
	if c.Budget <= 0 {
		c.Budget = 10 * time.Minute
	}
	return c
}

// Report is the deterministic outcome of one Run.
type Report struct {
	Seed           int64  `json:"seed"`
	Stack          string `json:"stack"`        // client stack name
	CC             string `json:"cc,omitempty"` // controller name ("" = stack default)
	Flows          int    `json:"flows"`
	Pairs          int    `json:"pairs,omitempty"` // client/server pairs (omitted when 1)
	Completed      int    `json:"completed"`
	Failed         int    `json:"failed"`
	BytesSent      uint64 `json:"bytes_sent"`
	BytesDelivered uint64 `json:"bytes_delivered"`
	// Setup is the backend clock once the world was built and its
	// control plane converged: exactly 5 s of virtual time on the
	// simulators, the wall-clock build and convergence time on the
	// real-time backends.
	Setup time.Duration `json:"setup"`
	// Makespan is first dial to last completion, virtual time.
	Makespan time.Duration `json:"makespan"`
	// GoodputBps is aggregate delivered bits over the makespan.
	GoodputBps uint64 `json:"goodput_bps"`
	// FCT percentiles over finished flows (nearest-rank).
	FCTp50 time.Duration `json:"fct_p50"`
	FCTp90 time.Duration `json:"fct_p90"`
	FCTp99 time.Duration `json:"fct_p99"`
	// Fairness is the Jain index over per-flow goodput, in [1/n, 1].
	Fairness float64 `json:"fairness"`
	// Violations are invariant-watchdog failures (must be empty: every
	// delivered stream equals the sent stream, byte for byte).
	Violations []string `json:"violations,omitempty"`
	// Events is the simulator's executed-event count — the denominator
	// for ns/event and events/sec in the perf report.
	Events  uint64           `json:"events"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// flow is the engine's in-run state for one connection. On the
// sharded backend each field has exactly one writing context: start is
// stamped in driver context (the dial event), got/done/end on the
// server's shard, and the two error slots on their own sides — the
// single-writer discipline that keeps the engine race-free with no
// locks, with barrier synchronization publishing everything to the
// driver's summarize pass.
type flow struct {
	id        int
	pair      int // index into the world's Ends
	payload   []byte
	startAt   netsim.Time // scheduled dial time
	start     netsim.Time // actual dial time (driver context)
	end       netsim.Time // completion stamp, server-side clock
	got       []byte      // server side
	done      bool        // server side
	errClient error       // client-side failure
	errServer error       // server-side failure
}

// err merges the two error slots deterministically (client first).
func (f *flow) err() error {
	if f.errClient != nil {
		return f.errClient
	}
	return f.errServer
}

// Run executes one many-flow simulation and reports it.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	reg := metrics.New()
	wcfg := harness.WorldConfig{
		Seed: cfg.Seed, Backend: cfg.Backend, Link: cfg.Link, Hops: cfg.Hops,
		Pairs: cfg.Pairs, Client: cfg.Client, Server: cfg.Server,
		Metrics: reg,
	}
	wcfg.SubCfg.CC, wcfg.MonoCfg.CC = cfg.CC, cfg.CC
	w := harness.BuildWorld(wcfg)
	defer w.Close()
	w.Exec(func() {
		if cfg.Tracer != nil {
			w.Sim.SetTracer(cfg.Tracer)
		}
		if len(cfg.Script.Steps) > 0 {
			inj := faults.New(w.Sim, w.Topo, cfg.Seed^0xfa17)
			inj.BindMetrics(reg.Scope("faults"))
			inj.MustApply(cfg.Script)
		}
	})
	wsc := reg.Scope("workload")
	started := wsc.Counter("flows_started")
	completedC := wsc.Counter("flows_completed")
	failedC := wsc.Counter("flows_failed")
	fctMs := wsc.Histogram("fct_ms",
		10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000)
	wd := faults.NewWatchdog()
	wd.BindMetrics(wsc.Sub("watchdog"))

	// Per-flow plans: payload from a per-flow seed, start time from the
	// on/off schedule. One planning RNG, consumed in flow order, keeps
	// the whole plan a pure function of cfg.Seed.
	plan := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	flows := make([]*flow, cfg.Flows)
	cycle := cfg.OnPeriod + cfg.OffPeriod
	lnMin, lnMax := math.Log(float64(cfg.MinSize)), math.Log(float64(cfg.MaxSize))
	base := w.Sim.Now()
	for i := range flows {
		size := int(math.Exp(lnMin + plan.Float64()*(lnMax-lnMin)))
		payload := make([]byte, size)
		rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b9 + 7)).Read(payload)
		at := time.Duration(i%cfg.Cycles)*cycle +
			time.Duration(plan.Int63n(int64(cfg.OnPeriod)))
		// The receive side accumulates exactly size bytes; reserving
		// them up front avoids regrowing got on every delivery burst.
		flows[i] = &flow{id: i, pair: i % cfg.Pairs, payload: payload,
			startAt: base + netsim.Time(at), got: make([]byte, 0, size)}
	}

	// Each pair's server drains its inbound connections; an accepted
	// conn's remote port is the dialling flow's local port, which the
	// dial event records in that pair's byPort before the SYN can
	// arrive (port spaces are per-stack, so the maps are per-pair).
	// Listening and dial scheduling mutate protocol state, so they run
	// under Exec (inline on the simulator, the backend lock elsewhere).
	var listenErr error
	w.Exec(func() { listenErr = listenAndSchedule(cfg, w, flows, base, started) })
	if listenErr != nil {
		panic(fmt.Sprintf("workload: listen: %v", listenErr))
	}

	// Drive the world until every flow resolved or the budget ran out.
	harness.RunUntil(w.Sim, cfg.Budget, func() bool {
		for _, f := range flows {
			if !f.done && f.err() == nil {
				return false
			}
		}
		return true
	})

	var rep *Report
	w.Exec(func() { rep = summarize(cfg, w, flows, wd, reg, completedC, failedC, fctMs) })
	rep.Setup = time.Duration(base)
	return rep
}

// listenAndSchedule installs every pair's accept loop and every flow's
// dial event. It must run with the backend lock held. Flow-outcome
// counters are folded in later by summarize (a pure function of the
// per-flow state, so the values match the old inline accounting) —
// protocol callbacks on different shards must not share counters.
func listenAndSchedule(cfg Config, w *harness.World,
	flows []*flow, base netsim.Time, started *metrics.Counter) error {
	byPort := make([]map[uint16]*flow, len(w.Ends))
	for p, end := range w.Ends {
		p, end := p, end
		byPort[p] = make(map[uint16]*flow)
		// Completion stamps read the pair's server-side clock: the
		// accept callbacks execute on that node's shard.
		serverB := end.ServerB
		if err := end.Server.Listen(80, func(sc transport.Conn) {
			f := byPort[p][sc.RemotePort()]
			if f == nil {
				return // stray accept; the flow side will show as unfinished
			}
			sc.Callbacks(nil, func() {
				f.got = append(f.got, sc.ReadAll()...)
				if sc.EOF() && !f.done {
					f.done = true
					f.end = serverB.Now()
				}
			}, nil, func(err error) {
				if err != nil && f.errServer == nil {
					f.errServer = err
				}
			})
		}); err != nil {
			return err
		}
	}

	// Dial events: each flow opens its connection at its scheduled
	// arrival and pushes its payload as buffer space opens up. The
	// delay is relative (startAt - base = Now), which on the simulator
	// lands on the identical absolute tick and FIFO slot the old
	// ScheduleAt call did, so reports stay byte-identical. Dial events
	// run in driver context (serially, at barriers on the sharded
	// engine), so the shared started counter and byPort maps are safe
	// here.
	for _, f := range flows {
		f := f
		end := w.Ends[f.pair]
		w.Sim.Schedule(time.Duration(f.startAt-base), func() {
			f.start = w.Sim.Now()
			cc, err := end.Client.Dial(end.ServerAddr, 80)
			if err != nil {
				f.errClient = err
				return
			}
			started.Inc()
			byPort[f.pair][cc.LocalPort()] = f
			toSend := f.payload
			push := func() {
				for len(toSend) > 0 {
					n := cc.Write(toSend)
					if n == 0 {
						return
					}
					toSend = toSend[n:]
				}
				cc.Close()
			}
			cc.Callbacks(push, nil, push, func(err error) {
				if err != nil && f.errClient == nil {
					f.errClient = err
				}
			})
		})
	}
	return nil
}

// summarize folds per-flow outcomes into the Report, runs the
// watchdog over every delivered stream, and settles the flow-outcome
// instruments from the per-flow state (counter values and histogram
// contents are order-independent, so folding here instead of in the
// per-shard completion callbacks changes nothing observable).
func summarize(cfg Config, w *harness.World,
	flows []*flow, wd *faults.Watchdog, reg *metrics.Registry,
	completedC, failedC *metrics.Counter, fctMs *metrics.Histogram) *Report {
	rep := &Report{
		Seed:  cfg.Seed,
		Stack: w.Client.Name(),
		CC:    cfg.CC,
		Flows: cfg.Flows,
	}
	if cfg.Pairs > 1 {
		rep.Pairs = cfg.Pairs
	}
	var fcts []time.Duration
	var goodputs []float64
	var lastEnd netsim.Time
	firstStart := netsim.Time(math.MaxInt64)
	for _, f := range flows {
		rep.BytesSent += uint64(len(f.payload))
		rep.BytesDelivered += uint64(len(f.got))
		name := fmt.Sprintf("flow%04d", f.id)
		if f.done {
			// Completed flows owe the exact byte stream.
			wd.CheckComplete(name, f.payload, f.got)
			fct := time.Duration(f.end - f.start)
			fcts = append(fcts, fct)
			if fct > 0 {
				goodputs = append(goodputs, float64(len(f.got))/fct.Seconds())
			}
			if f.start < firstStart {
				firstStart = f.start
			}
			if f.end > lastEnd {
				lastEnd = f.end
			}
			rep.Completed++
			completedC.Inc()
			fctMs.Observe(int64(fct / time.Millisecond))
		} else {
			// Unfinished flows still owe the prefix invariant.
			wd.CheckPrefix(name, f.payload, f.got)
			if f.err() != nil {
				rep.Failed++
				failedC.Inc()
			}
		}
	}
	if rep.Completed > 0 {
		rep.Makespan = time.Duration(lastEnd - firstStart)
		if rep.Makespan > 0 {
			rep.GoodputBps = uint64(float64(rep.BytesDelivered*8) / rep.Makespan.Seconds())
		}
		sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
		rep.FCTp50 = percentile(fcts, 50)
		rep.FCTp90 = percentile(fcts, 90)
		rep.FCTp99 = percentile(fcts, 99)
		rep.Fairness = jain(goodputs)
	}
	rep.Violations = wd.Violations()
	rep.Events = w.Sim.Steps()
	rep.Metrics = reg.Snapshot()
	return rep
}

// percentile is nearest-rank over an ascending slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// jain is the Jain fairness index (Σx)²/(n·Σx²), 1.0 when all flows
// got equal goodput.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
