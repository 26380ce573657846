package harness

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// An appOp is what one end's application does to its connection
// besides reading: nothing, an orderly Close, or an Abort.
type appOp int

const (
	opNone appOp = iota
	opClose
	opAbort
)

// A lifecyclePlan is one seeded application schedule: the client
// writes payload bytes, the server reads everything, and each end then
// does its op, either at a virtual time after the dial or from the
// server's first OnReadable.
type lifecyclePlan struct {
	seed    int64
	payload int
	loss    float64
	ops     [2]appOp         // client, server
	at      [2]time.Duration // when each op fires; < 0: the server's first OnReadable
}

func newLifecyclePlan(seed int64) lifecyclePlan {
	r := rand.New(rand.NewSource(seed))
	p := lifecyclePlan{seed: seed, payload: r.Intn(40<<10 + 1)}
	if r.Intn(2) == 1 {
		p.loss = 0.02
	}
	for i := range p.ops {
		p.ops[i] = appOp(r.Intn(3))
		p.at[i] = -1
		if r.Intn(2) == 1 {
			p.at[i] = time.Duration(r.Intn(200)) * time.Millisecond
		}
	}
	return p
}

func (p lifecyclePlan) aborts() bool { return p.ops[0] == opAbort || p.ops[1] == opAbort }

// An endOutcome is what one end's application can see once the plan
// has run: the connection's final State and Err, how often and with
// what its onClosed fired, and whether it read EOF.
type endOutcome struct {
	state     transport.State
	err       error
	closed    int
	closedErr error
	eof       bool
}

// runLifecycle runs p over one stack kind and returns the client's and
// the server's outcomes. It stops once both ends' onClosed has fired,
// or after two virtual minutes.
func runLifecycle(t *testing.T, p lifecyclePlan, kind Kind) [2]endOutcome {
	t.Helper()
	w := BuildWorld(WorldConfig{Seed: p.seed, Hops: 2, Client: kind, Server: kind,
		Link: netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: p.loss}})
	defer w.Close()
	var conns [2]transport.Conn
	var out [2]endOutcome
	var pending [2]bool // a timed op that fired before its connection existed
	fire := func(i int) {
		if conns[i] == nil {
			pending[i] = true
			return
		}
		switch p.ops[i] {
		case opClose:
			conns[i].Close()
		case opAbort:
			conns[i].Abort()
		}
	}
	watch := func(i int, readable func()) {
		c := conns[i]
		c.Callbacks(nil, readable, nil, func(err error) {
			out[i].closed++
			out[i].closedErr = err
		})
	}
	readFirst := true
	if err := w.Server.Listen(80, func(sc transport.Conn) {
		conns[1] = sc
		watch(1, func() {
			sc.ReadAll()
			if readFirst {
				readFirst = false
				for i := range p.at {
					if p.at[i] < 0 {
						fire(i)
					}
				}
			}
		})
		if pending[1] {
			fire(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	cc, err := w.Client.Dial(w.ServerAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	conns[0] = cc
	watch(0, func() { cc.ReadAll() })
	if n := cc.Write(make([]byte, p.payload)); n != p.payload {
		t.Fatalf("plan %d: wrote %d of %d bytes", p.seed, n, p.payload)
	}
	for i := range p.at {
		if p.at[i] >= 0 {
			w.Sim.Schedule(p.at[i], func() { fire(i) })
		}
	}
	RunUntil(w.Sim, 2*time.Minute, func() bool { return out[0].closed > 0 && out[1].closed > 0 })
	for i, c := range conns {
		if c != nil {
			out[i].state, out[i].err, out[i].eof = c.State(), c.Err(), c.EOF()
		}
	}
	return out
}

// TestLifecycleAgrees is the cross-stack differential of the
// connection lifecycle: 300 seeded plans, each a payload of 0-40 KB
// and, per end, nothing, Close or Abort at a random time or from the
// server's first OnReadable, over a clean or a 2%-loss link. The
// sublayered and the monolithic stack must leave every end in the same
// State with the same Err, fire its onClosed as often and with the same
// error, and (when nothing aborts, so the order of a FIN and an RST
// cannot depend on each stack's segment timing) agree on EOF. It reads
// only transport.Conn, so it checks the service both stacks offer.
func TestLifecycleAgrees(t *testing.T) {
	const plans = 300
	differ := 0
	for seed := int64(1); seed <= plans; seed++ {
		p := newLifecyclePlan(seed)
		sub := runLifecycle(t, p, KindSublayeredNative)
		mono := runLifecycle(t, p, KindMonolithic)
		for i, end := range [2]string{"client", "server"} {
			s, m := sub[i], mono[i]
			if p.aborts() {
				s.eof, m.eof = false, false
			}
			if s != m {
				differ++
				t.Errorf("plan %+v, %s: sublayered %+v, monolithic %+v", p, end, s, m)
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d ends differ", differ, 2*plans)
	}
}
