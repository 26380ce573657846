package sublayered

import (
	"time"

	"repro/internal/ccontrol"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// connParts is what a connection uses only while it sends: the
// callbacks its timers are armed with, and the congestion controller,
// RD's retransmission-queue array and the send buffer's array. newConn
// takes a bundle from its stack's spare list (or makes one when the
// list is empty) and hands the parts in it to RD and OSR; release gives
// them back once the connection's timers are stopped: at TIME_WAIT,
// when both streams are finished and RD holds the ack of everything it
// sent, FIN included, or else at destroy. Then the bundle goes back on
// the list for the next Dial or passive open, which runs on those parts
// instead of on new memory.
//
// A finished connection keeps what its handle still answers with: the
// Conn itself, its manager (State, Err), its instruments (Stats and the
// conn<n>/... samples) and its read buffer (EOF, ReadAll). The fields
// that pointed at lent parts are nil, so a finished handle never
// reaches a part another connection now owns.
//
// The spare list is linked through the bundles, so giving one back
// allocates nothing; it is not a sync.Pool, whose per-P caches empty at
// every collection and would make what a run allocates depend on when
// the collector ran. A bundle is handed on only when every timer armed
// with its callbacks is stopped or has fired, so a callback always
// finds the connection that armed it. Release stops all but Watson's
// announcement (Conn.announce), whose handle the bundle keeps: a
// bundle whose announcement is still pending is not handed on, and
// goes with its connection.
type connParts struct {
	conn     *Conn
	fns      [timerKinds]func()
	announce netsim.Timer
	// The parts given back and not yet handed out again: nil for a
	// part the connection that gave the bundle back never made.
	cc   ccontrol.Controller
	out  []outSeg
	send []byte
	next *connParts // the stack's spare list
}

// The timers of a connection, by the callback each is armed with.
const (
	cmTimer    = iota // CM's: SYN and FIN retransmission, Watson's announcement
	rtoTimer          // RD's retransmission timeout
	ackTimer          // RD's delayed ack
	probeTimer        // OSR's zero-window probe
	paceTimer         // OSR's pacing release
	timerKinds
)

// callback builds the callback of timer kind k. A bundle builds one
// the first time a timer of its kind is armed and keeps it while the
// bundle is reused: a short-lived world's few connections arm only
// some kinds (pacing is bbrlite's, the delayed ack a Config choice,
// the probe needs a closed window), and building all five with every
// bundle raised lossy's allocations per event by 1.9 %.
func (p *connParts) callback(k int) func() {
	switch k {
	case cmTimer:
		return p.onCM
	case rtoTimer:
		return p.onRTO
	case ackTimer:
		return p.onAck
	case probeTimer:
		return p.onProbe
	}
	return p.onPace
}

func (p *connParts) onCM()    { p.conn.cm.onTimer() }
func (p *connParts) onRTO()   { p.conn.rd.onRTOTimer() }
func (p *connParts) onAck()   { p.conn.rd.onAckTimer() }
func (p *connParts) onProbe() { p.conn.osr.onProbeTimer() }
func (p *connParts) onPace()  { p.conn.osr.onPaceTimer() }

// takeParts lends c the spare bundle given back last, or a new one.
func (s *Stack) takeParts(c *Conn) *connParts {
	p := s.spare
	if p == nil {
		p = new(connParts)
	} else {
		s.spare, p.next = p.next, nil
	}
	p.conn, c.parts = c, p
	return p
}

// newCC returns a congestion controller of the configured kind in the
// state its constructor builds: spare, Reset, when there is one.
func (s *Stack) newCC(spare ccontrol.Controller) ccontrol.Controller {
	if spare != nil {
		spare.Reset()
		return spare
	}
	return ccontrol.MustNew(s.cfg.CC, transport.MSS)
}

// arm schedules the connection's timer of kind k to fire after d. A
// released connection has no bundle; one that arms again — RD's
// delayed ack for data sent past the peer's FIN — is lent an empty new
// one, which its next release gives back.
func (c *Conn) arm(d time.Duration, k int) netsim.Timer {
	p := c.parts
	if p == nil {
		p = &connParts{conn: c}
		c.parts = p
	}
	if p.fns[k] == nil {
		p.fns[k] = p.callback(k)
	}
	return c.stack.sim.ScheduleTimer(d, p.fns[k])
}

// announce arms Watson's zero-delay announcement, a CM timer that
// release leaves running: a connection aborted meanwhile is dead when
// it fires, which the manager ignores — so it fires when it always
// did, and the simulator's event counts do not depend on how a
// connection ended.
func (c *Conn) announce() {
	t := c.arm(0, cmTimer)
	c.parts.announce = t
}

// release stops RD's and OSR's timers and gives the parts they hold
// back to the stack in c's bundle. It runs when c enters TIME_WAIT
// with all it sent acknowledged (onSegment) and at destroy; the second
// finds nothing left to give.
func (c *Conn) release() {
	out := c.rd.stop()
	cc, send := c.osr.stop()
	p := c.parts
	if p == nil {
		return
	}
	c.parts = nil
	p.cc, p.out, p.send = cc, out, send
	if p.announce.Active() {
		return // its callback still names c
	}
	p.conn, p.announce = nil, netsim.Timer{}
	p.next, c.stack.spare = c.stack.spare, p
}

// timeWaitQueue is every TIME_WAIT timer of a stack, linked through
// the waiting connections. Each waits the same transport.TimeWait from
// the segment that started it, so they fire in the order they were
// armed, and one callback, built with the stack, ends the connection
// at the front. Nothing stops one: a connection reset meanwhile is dead
// when its turn comes, and its manager ignores the firing, as it always
// did.
type timeWaitQueue struct {
	head, tail *Conn
	expire     func()
}

// wait arms c's TIME_WAIT timer.
func (q *timeWaitQueue) wait(c *Conn) {
	if q.tail == nil {
		q.head = c
	} else {
		q.tail.waitNext = c
	}
	q.tail = c
	c.stack.sim.ScheduleTimer(transport.TimeWait, q.expire)
}

// onExpire is the queue's callback: the oldest timer fired.
func (q *timeWaitQueue) onExpire() {
	c := q.head
	q.head, c.waitNext = c.waitNext, nil
	if q.head == nil {
		q.tail = nil
	}
	c.cm.onTimer()
}
