// Package udpnet is the real-socket backend: the netsim.Backend
// contract carried over real UDP sockets on loopback. Every
// unidirectional link is a (listener, connected sender) socket pair on
// 127.0.0.1; the existing tcpwire bytes travel inside a two-byte frame
// (version + flags, bit 0 carrying the ECN mark, which UDP itself
// cannot). Impairments — loss, delay, jitter, reordering, corruption,
// duplication, serialization/queueing/ECN — are applied in userspace
// at the sender through the same RTLinkCore pipeline the channel
// backend uses, so E10-style fault scenarios run unchanged. A packet's
// planned latency is an event in the RTClock's store that writes the
// frame to the socket when it fires; each link's reader goroutine
// posts what comes back off the socket as an arrival due at once, so
// every delivery still runs on the clock's one dispatcher. The kernel
// then adds its own real scheduling, batching and (under pressure)
// socket-buffer drops on top. That is the point: wall-clock numbers
// under a real kernel.
package udpnet

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Frame header: one version byte and one flags byte in front of every
// datagram. maxDatagram bounds the receive buffer; tcpwire segments
// and datalink frames are far smaller.
const (
	frameVersion = 0x01
	flagECN      = 0x01
	headerLen    = 2
	maxDatagram  = 64 * 1024
)

// Available reports whether loopback UDP sockets can be opened in this
// environment (sandboxes and some CI runners forbid them). Callers use
// it to skip gracefully.
func Available() bool {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// Network is the UDP backend. Create with New, wire links with NewLink
// (or netsim.NewDuplexOn), and Close when done to release the sockets.
type Network struct {
	*netsim.RTClock
	links   []*link
	readers sync.WaitGroup
}

// New builds a UDP backend seeded with seed, probing first that
// loopback sockets are available. When reg is non-nil the backend
// registers the same "netsim/..." instruments the simulator does.
func New(seed int64, reg *metrics.Registry) (*Network, error) {
	if !Available() {
		return nil, fmt.Errorf("udpnet: loopback UDP sockets unavailable")
	}
	return &Network{RTClock: netsim.NewRTClock("udp", seed, reg)}, nil
}

// NewLink creates a unidirectional impaired link delivering to dst: a
// fresh loopback socket pair plus a reader goroutine. Socket setup
// errors panic — New already probed that sockets work, so a failure
// here is resource exhaustion, not an environment to degrade into.
// Callers hold the backend lock.
func (n *Network) NewLink(cfg netsim.LinkConfig, dst netsim.Handler) netsim.Port {
	recv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		panic(fmt.Sprintf("udpnet: listen: %v", err))
	}
	send, err := net.DialUDP("udp4", nil, recv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		recv.Close()
		panic(fmt.Sprintf("udpnet: dial: %v", err))
	}
	l := &link{clk: n.RTClock, recv: recv, send: send}
	l.RTLinkCore = netsim.NewRTLinkCore(n.RTClock, cfg, dst, l.write)
	n.links = append(n.links, l)
	n.readers.Add(1)
	go func() {
		defer n.readers.Done()
		l.read()
	}()
	return l
}

// Close stops the dispatcher, closes every link's sockets and waits
// for the reader goroutines they unblock to exit.
func (n *Network) Close() error {
	err := n.RTClock.Close()
	for _, l := range n.links {
		l.send.Close()
		l.recv.Close()
	}
	n.readers.Wait()
	return err
}

// link is one unidirectional UDP link: the wall-clock link core (which
// supplies the Port methods) writing through a loopback socket pair.
type link struct {
	*netsim.RTLinkCore
	clk  *netsim.RTClock
	recv *net.UDPConn
	send *net.UDPConn
}

// write frames data and puts it on the wire when the packet's planned
// latency has elapsed. The buffer's life ends here — the bytes continue
// as a datagram, so the trace incarnation is retired and the buffer
// pooled. Runs on the dispatcher, under the backend lock.
func (l *link) write(data []byte, ecn bool) {
	frame := bufpool.Get(headerLen + len(data))
	frame[0] = frameVersion
	frame[1] = 0
	if ecn {
		frame[1] |= flagECN
	}
	copy(frame[headerLen:], data)
	_, err := l.send.Write(frame)
	bufpool.Put(frame)
	if err != nil {
		l.SendFailed(data)
		return
	}
	if t := l.clk.Tracer(); t != nil {
		t.Retire(data)
	}
	bufpool.Put(data)
}

// read drains the link's receiving socket: each datagram becomes a
// fresh pooled buffer (a new trace incarnation — the wire crossing is
// a real process boundary as far as buffer identity goes) posted as an
// arrival for the dispatcher to deliver.
func (l *link) read() {
	buf := make([]byte, maxDatagram+headerLen)
	for {
		nr, err := l.recv.Read(buf)
		if err != nil {
			return // socket closed
		}
		if nr < headerLen || buf[0] != frameVersion {
			continue
		}
		ecn := buf[1]&flagECN != 0
		data := bufpool.Get(nr - headerLen)
		copy(data, buf[headerLen:nr])
		l.Receive(data, ecn)
	}
}
