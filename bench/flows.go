package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/harness"
)

// The bench-owned flow driver for the byte-stream workloads. It dials,
// writes and runs the backend in slices until every receiver has
// verified its last byte, then returns — no fixed-budget RunFor, so the
// steady clock never times idle control-plane events.
//
// State follows the sharded engine's single-writer rule: everything in
// a tx or rx is only touched from callbacks of the host that owns it
// (or from the driver while every shard is parked), so the same driver
// runs unchanged on sim and sharded:N.

const (
	flowPort = 80
	// slice is how much virtual time one Backend.RunFor call covers
	// between completion checks; the clock stops at most one slice of
	// control-plane events after the last verified byte.
	slice = 100 * time.Millisecond
	// chunk bounds the bytes a sender generates ahead of Write.
	chunk = 32 << 10
	// graceVirtual is how long past the last planned arrival the
	// watchdog lets a run go before it declares the open flows failed.
	graceVirtual = 10 * time.Minute
)

// tx is the sending half of one direction of a flow.
type tx struct {
	conn   transport.Conn
	key    uint64
	size   int
	off    int // bytes accepted by Write so far
	buf    []byte
	pend   []byte // generated, not yet accepted
	closed bool
}

// push writes as much of the stream as the connection accepts and
// half-closes after the last byte.
func (t *tx) push() {
	for {
		if len(t.pend) == 0 {
			if t.off == t.size {
				if !t.closed {
					t.closed = true
					t.buf = nil
					t.conn.Close()
				}
				return
			}
			if t.buf == nil {
				t.buf = make([]byte, min(chunk, t.size))
			}
			t.pend = t.buf[:min(len(t.buf), t.size-t.off)]
			fillStream(t.key, uint64(t.off), t.pend)
		}
		w := t.conn.Write(t.pend)
		t.pend = t.pend[w:]
		t.off += w
		if len(t.pend) > 0 {
			return
		}
	}
}

// rx is the receiving half: it regenerates the stream and compares.
type rx struct {
	key    uint64
	size   int
	off    int
	bad    bool // a byte differed or the stream ran long
	done   bool // EOF seen
	doneAt netsim.Time
}

func (r *rx) read(conn transport.Conn, now netsim.Time) {
	if p := conn.ReadAll(); len(p) > 0 {
		if r.off+len(p) > r.size || !checkStream(r.key, uint64(r.off), p) {
			r.bad = true
		}
		r.off += len(p)
	}
	if !r.done && conn.EOF() {
		r.done, r.doneAt = true, now
	}
}

func (r *rx) ok() bool { return r.done && !r.bad && r.off == r.size }

// flow is one connection's driver state. up is client→server, down the
// echo direction (unused unless plan.echo).
type flow struct {
	plan       flowPlan
	upTx       tx // client host
	upRx       rx // server host
	downTx     tx // server host
	downRx     rx // client host
	errClient  error
	errServer  error
	dialFailed bool
}

func (f *flow) verified() bool {
	return f.upRx.ok() && (!f.plan.echo || f.downRx.ok())
}

// resolved reports whether nothing more can happen to the flow.
func (f *flow) resolved() bool {
	if f.dialFailed || f.verified() {
		return true
	}
	// A receiver that saw EOF with wrong bytes is settled too; an error
	// on a side that has not finished kills the flow.
	if f.upRx.done && (!f.plan.echo || f.downRx.done) {
		return true
	}
	return (f.errClient != nil && !f.downRx.done) || (f.errServer != nil && !f.upRx.done)
}

// flowRun is the outcome of driving one plan to completion.
type flowRun struct {
	ok       int
	failed   int
	bytes    int64 // verified payload bytes, both directions
	watchdog bool
	// pendingSum/pendingN sample scheduled−executed−cancelled once per
	// slice (sim only; the counters are sums on the sharded engine).
	pendingSum float64
	pendingN   int
}

const echoKey = 0xec40ec40ec40ec40

// newFlows builds the driver state for a plan.
func newFlows(plan []flowPlan) []*flow {
	flows := make([]*flow, len(plan))
	for i := range plan {
		f := &flow{plan: plan[i]}
		pl := &f.plan
		f.upTx = tx{key: pl.key, size: pl.size}
		f.upRx = rx{key: pl.key, size: pl.size}
		if pl.echo {
			f.downTx = tx{key: pl.key ^ echoKey, size: pl.size}
			f.downRx = rx{key: pl.key ^ echoKey, size: pl.size}
		}
		flows[i] = f
	}
	return flows
}

// flowDriver holds what the accept loops and the dial events share.
type flowDriver struct {
	w     *harness.World
	sp    *spans
	probe *probe
	// byPort[pair] maps a dialled connection's local port to its flow;
	// the accept side looks its peer up by remote port. Written only in
	// driver context (dial events), read on the server's shard.
	byPort []map[uint16]*flow
}

// listen installs every pair's accept loop. It runs under Exec.
func (d *flowDriver) listen() error {
	sp := d.sp
	d.byPort = make([]map[uint16]*flow, len(d.w.Ends))
	for p := range d.w.Ends {
		end := d.w.Ends[p]
		ports := make(map[uint16]*flow)
		d.byPort[p] = ports
		err := end.Server.Listen(flowPort, func(sc transport.Conn) {
			f := ports[sc.RemotePort()]
			if f == nil {
				return
			}
			f.downTx.conn = sc
			pushDown := func() {
				if f.plan.echo {
					sp.begin(spanWrite)
					f.downTx.push()
					sp.end()
				}
			}
			sc.Callbacks(pushDown, func() {
				sp.begin(spanReadVerify)
				wasDone := f.upRx.done
				f.upRx.read(sc, end.ServerB.Now())
				sp.end()
				if !wasDone && f.upRx.done && !f.plan.echo {
					sc.Close()
				}
			}, pushDown, func(err error) {
				if err != nil && f.errServer == nil {
					f.errServer = err
				}
			})
		})
		if err != nil {
			return fmt.Errorf("listen pair %d: %w", p, err)
		}
	}
	return nil
}

// start performs the dials due at once and schedules the rest. It
// runs under Exec.
func (d *flowDriver) start(flows []*flow) {
	sp := d.sp
	for _, f := range flows {
		f := f
		end := d.w.Ends[f.plan.pair]
		dial := func() {
			sp.begin(spanDial)
			cc, err := end.Client.Dial(end.ServerAddr, flowPort)
			sp.end()
			if err != nil {
				f.dialFailed, f.errClient = true, err
				return
			}
			d.byPort[f.plan.pair][cc.LocalPort()] = f
			f.upTx.conn = cc
			pushUp := func() {
				sp.begin(spanWrite)
				f.upTx.push()
				sp.end()
			}
			cc.Callbacks(pushUp, func() {
				sp.begin(spanReadVerify)
				f.downRx.read(cc, end.ClientB.Now())
				sp.end()
			}, pushUp, func(err error) {
				if err != nil && f.errClient == nil {
					f.errClient = err
				}
			})
		}
		if f.plan.start == 0 {
			dial()
		} else {
			// Engine-level schedules are control events: on the sharded
			// backend they run serially with every shard parked, so the
			// shared byPort maps need no lock.
			d.w.Sim.Schedule(f.plan.start, dial)
		}
	}
}

// run drives the world until every flow is resolved (or the
// watchdog fires) and tallies the outcome. pending, when non-nil,
// returns the engine's current pending-event depth.
func (d *flowDriver) run(flows []*flow, pending func() float64) flowRun {
	w, sp := d.w, d.sp
	var run flowRun
	var last time.Duration
	for _, f := range flows {
		if f.plan.start > last {
			last = f.plan.start
		}
	}
	deadline := w.Sim.Now() + netsim.Time(last+graceVirtual)
	d.probe.tick(sp) // the first tick always probes, however short the phase
	for {
		settled := true
		w.Exec(func() {
			for _, f := range flows {
				if !f.resolved() {
					settled = false
					return
				}
			}
		})
		if settled {
			break
		}
		if w.Sim.Now() >= deadline {
			run.watchdog = true
			break
		}
		sp.begin(spanRunSlice)
		w.Sim.RunFor(slice)
		sp.end()
		d.probe.tick(sp)
		if pending != nil {
			run.pendingSum += pending()
			run.pendingN++
		}
	}
	w.Exec(func() {
		for _, f := range flows {
			if f.verified() {
				run.ok++
				run.bytes += int64(f.upRx.off + f.downRx.off)
			} else {
				run.failed++
			}
		}
	})
	return run
}
