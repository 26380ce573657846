package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/transport/harness"
	"repro/internal/verify"
)

// phaseSpec selects one phase of a rep: a workload driven once on one
// stack and one backend, with the optional observers of the traced run.
type phaseSpec struct {
	workload string
	kind     harness.Kind
	backend  string // "sim", "sharded:N" or "chan"
	seed     int64
	scale    float64

	sp        *spans // bench tracer and span recorder; nil in timed reps
	recorder  bool   // attach the repo's internal/trace Recorder to every router
	contracts bool   // wire a verify.Checker(ModeRecord) into the sublayered hosts
	counts    bool   // diff the registry and bufpool around the steady phase
}

// phaseResult is what one phase measured. Times are host time.
type phaseResult struct {
	setupS  float64 // build + convergence + plan, up to the first Dial
	buildMs float64 // BuildWorld/BuildCluster alone
	steadyS float64 // first Dial to last verified byte, the probe's time taken out
	cpuS    float64 // user+sys CPU of the steady phase, likewise
	// hostSpeed is the host's speed during the steady phase relative to
	// the reference host (see probe.go); 0 on phases that do not probe.
	hostSpeed float64
	// realtime marks a phase on the wall-clock backend, where the steady
	// wall time is link-delay sleep and the work's host cost is cpuS.
	realtime bool

	steps          uint64 // Backend.Steps() delta over the steady phase
	convergeEvents uint64 // Steps() when the build returned
	mallocs        uint64
	allocBytes     uint64
	gcCycles       uint32
	gcCPUS         float64

	ops, failed int
	bytes       int64 // verified payload bytes
	watchdog    bool
	digest      string // virtual-time backends only

	latMs      []float64 // rpc-rt: per-call wall latency, first call per peer excluded
	overheadUs []float64 // rpc-rt: latency minus 2 × hops × link delay

	pendingMean        float64
	instrumentsAtStart int // registry size when the steady phase began
	instruments        int // and when it ended
	snapshotMs         float64
	counts             map[string]float64 // registry diff summed over digit-normalised names
	pool               bufpool.Stats      // bufpool delta over the steady phase
	checks             uint64
	violations         int
}

// ref states host seconds measured during the phase in reference-host
// seconds. Phases that do not probe (the wall-clock backend, whose time
// is link delay, not host work) report plain seconds.
func (r *phaseResult) ref(s float64) float64 {
	if r.hostSpeed == 0 {
		return s
	}
	return s * r.hostSpeed
}

// takeProbe takes the probe's own time out of the steady clock and
// records the host speed it read.
func (r *phaseResult) takeProbe(pr *probe) {
	r.steadyS -= pr.seconds()
	r.cpuS -= pr.seconds()
	r.hostSpeed = pr.speed()
}

// hostS is the host time the steady phase's work cost: its wall time on
// the virtual-time engines, which never wait, and its CPU time on the
// wall-clock backend, which mostly does.
func (r *phaseResult) hostS() float64 {
	if r.realtime {
		return r.cpuS
	}
	return r.steadyS
}

// costS is hostS in reference-host seconds.
func (r *phaseResult) costS() float64 { return r.ref(r.hostS()) }

func runPhase(ps phaseSpec) (phaseResult, error) {
	// Start every phase from a collected heap so one phase's garbage
	// (a churn registry is ~600k instruments) is not billed to the next.
	runtime.GC()
	if ps.workload == wRPC {
		return runRPC(ps, rpcSpecFor(ps.scale))
	}
	return runStreamPhase(ps)
}

// meter brackets the steady phase.
type meter struct {
	t0    time.Time
	cpu0  float64
	ms0   runtime.MemStats
	gc0   float64
	steps uint64
	pool0 bufpool.Stats
}

func startMeter(steps uint64) *meter {
	m := &meter{steps: steps, pool0: bufpool.Snapshot(), gc0: gcCPUSeconds(), cpu0: cpuSeconds()}
	runtime.ReadMemStats(&m.ms0)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(steps uint64, r *phaseResult) {
	r.steadyS = time.Since(m.t0).Seconds()
	r.cpuS = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.steps = steps - m.steps
	r.mallocs = ms.Mallocs - m.ms0.Mallocs
	r.allocBytes = ms.TotalAlloc - m.ms0.TotalAlloc
	r.gcCycles = ms.NumGC - m.ms0.NumGC
	r.gcCPUS = gcCPUSeconds() - m.gc0
	p := bufpool.Snapshot()
	r.pool = bufpool.Stats{Gets: p.Gets - m.pool0.Gets, Puts: p.Puts - m.pool0.Puts,
		Fresh: p.Fresh - m.pool0.Fresh, Foreign: p.Foreign - m.pool0.Foreign, Oversize: p.Oversize - m.pool0.Oversize}
}

func runStreamPhase(ps phaseSpec) (phaseResult, error) {
	var res phaseResult
	spec := streamSpecFor(ps.workload, ps.scale)
	sp := ps.sp
	t0 := time.Now()

	sp.begin(spanSetup)
	reg := metrics.New()
	cfg := harness.WorldConfig{Seed: ps.seed, Backend: ps.backend, Link: spec.link, Hops: spec.hops,
		Pairs: spec.pairs, Client: ps.kind, Server: ps.kind, Metrics: reg}
	var ck *verify.Checker
	if ps.contracts {
		ck = verify.NewChecker(verify.ModeRecord)
		cfg.SubCfg.Contracts = ck
	}
	w := harness.BuildWorld(cfg)
	res.buildMs = time.Since(t0).Seconds() * 1e3
	res.convergeEvents = w.Sim.Steps()
	sp.end()

	sp.begin(spanPlan)
	pr := theProbe()
	d := &flowDriver{w: w, sp: sp, probe: pr}
	var err error
	w.Exec(func() {
		if sp != nil {
			w.Sim.SetTracer(sp)
		}
		if ps.recorder {
			attachRecorder(w.Sim, w.Topo)
		}
		err = d.listen()
	})
	if err != nil {
		w.Close()
		return res, err
	}
	flows := newFlows(planFlows(spec, ps.seed))
	var before metrics.Snapshot
	if ps.counts {
		before = reg.Snapshot()
	}
	var pending func() float64
	if ps.counts && ps.backend == harness.BackendSim {
		// On sim these are plain counters; the sharded engine exports
		// sums, which Registry.Counter cannot hand back.
		sched, exec, canc := reg.Counter("netsim/events/scheduled"), reg.Counter("netsim/events/executed"), reg.Counter("netsim/events/cancelled")
		pending = func() float64 { return float64(sched.Value()) - float64(exec.Value()) - float64(canc.Value()) }
	}
	sp.end()
	res.instrumentsAtStart = reg.Len()
	res.setupS = time.Since(t0).Seconds()

	pr.reset()
	m := startMeter(w.Sim.Steps())
	sp.begin(spanStart)
	w.Exec(func() { d.start(flows) })
	sp.end()
	run := d.run(flows, pending)
	m.stop(w.Sim.Steps(), &res)
	res.takeProbe(pr)

	sp.begin(spanCheck)
	res.ops, res.failed, res.bytes, res.watchdog = run.ok+run.failed, run.failed, run.bytes, run.watchdog
	if run.pendingN > 0 {
		res.pendingMean = run.pendingSum / float64(run.pendingN)
	}
	res.instruments = reg.Len()
	w.Exec(func() {
		ts := time.Now()
		snap := reg.Snapshot()
		res.snapshotMs = time.Since(ts).Seconds() * 1e3
		res.digest = streamDigest(flows, w.Sim.Steps(), snap)
		if ps.counts {
			res.counts = sumCounts(snap.Diff(before))
		}
	})
	if ck != nil {
		res.checks, res.violations = ck.Checks(), len(ck.Violations())
	}
	sp.end()

	sp.begin(spanClose)
	w.Exec(func() {
		w.Sim.SetTracer(nil)
		for _, e := range w.Ends {
			e.Client.Close()
			e.Server.Close()
		}
	})
	drainWorld(w.Sim, w.Topo, time.Second)
	w.Close()
	sp.end()
	return res, nil
}

// drainWorld cuts every link and lets in-flight packets reach their
// (now down) far ends, so every pooled buffer the world still held is
// returned before the backend is closed. Only the bufpool leak check
// needs it, so it only runs in bufpool debug mode (never in a measured
// run) and outside every timed window. d must exceed the longest link
// latency: virtual time on the simulators, a wall-clock sleep on chan.
func drainWorld(b netsim.Backend, topo *network.Topology, d time.Duration) {
	if !bufpool.DebugEnabled() {
		return
	}
	b.Exec(func() {
		for _, l := range topo.Links {
			l.SetUp(false)
		}
	})
	b.RunFor(d)
}

// attachRecorder taps every router with the repo's packet recorder,
// in address order.
func attachRecorder(b netsim.Backend, topo *network.Topology) {
	rec := trace.NewRecorder(b, 0)
	addrs := make([]int, 0, len(topo.Routers))
	for a := range topo.Routers {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		rec.Attach(topo.Routers[network.Addr(a)])
	}
}

// digester accumulates what must not depend on the engine or the rep:
// receivers' virtual completion times, the executed-event count and
// every registry sample.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digester) snapshot(snap metrics.Snapshot) {
	for i := range snap.Samples {
		s := &snap.Samples[i]
		d.h.Write([]byte(s.Name))
		d.put(uint64(s.Value))
		d.put(uint64(s.Sum))
		for _, bk := range s.Buckets {
			d.put(uint64(bk.Le))
			d.put(bk.N)
		}
	}
}

func (d digester) sum() string { return strconv.FormatUint(d.h.Sum64(), 16) }

func streamDigest(flows []*flow, steps uint64, snap metrics.Snapshot) string {
	d := newDigester()
	for _, f := range flows {
		d.put(uint64(f.upRx.doneAt))
		d.put(uint64(f.downRx.doneAt))
	}
	d.put(steps)
	d.snapshot(snap)
	return d.sum()
}

// sumCounts folds a snapshot into totals keyed by the sample name with
// every digit run replaced by '#': "n3/transport/conn17/rd/retransmits"
// and its 20,000 siblings become one "n#/transport/conn#/rd/retransmits".
// Gauges are levels, not counts, and are left out.
func sumCounts(snap metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64, 128)
	var buf []byte
	for i := range snap.Samples {
		s := &snap.Samples[i]
		if s.Kind == metrics.KindGauge {
			continue
		}
		buf = buf[:0]
		inDigits := false
		for j := 0; j < len(s.Name); j++ {
			c := s.Name[j]
			if c >= '0' && c <= '9' {
				if !inDigits {
					buf = append(buf, '#')
					inDigits = true
				}
				continue
			}
			inDigits = false
			buf = append(buf, c)
		}
		out[string(buf)] += float64(s.Value)
	}
	return out
}

// --- process-level readings ---

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		return s[0].Value.Float64()
	}
	return 0
}

// peakRSSMB reads the process high-water mark (VmHWM) from /proc.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
