// Package transport defines the uniform surface both TCP
// implementations expose: Stack (one host's transport: Listen, Dial,
// Close) and Conn (one connection's byte stream). The sublayered stack
// (internal/transport/sublayered, native Fig. 6 wire format or behind
// the §3.1 shim) and the monolithic baseline
// (internal/transport/monolithic) implement Conn directly
// (*sublayered.Conn, *monolithic.PCB); internal/transport/harness wraps
// each concrete Stack only to give Listen and Dial the interface
// signatures. So the experiments, the interop matrix and the many-flow
// workload engine (internal/workload) drive either implementation — or
// both at once — with the same code, and a caller that needs
// sublayer-level state type-asserts the Conn to its concrete type.
//
// A stack is built from its package's Config struct and nothing else:
// sublayered.Config and monolithic.Config each carry CC (the congestion
// controller, by ccontrol name) and Metrics (the registry
// scope NewStack adopts the stack's instruments under). What the two
// stacks must agree on is not configurable: it is the constants below.
//
// # Connection lifecycle
//
// The lifecycle is part of the service, so its vocabulary (State,
// ErrReset, ErrTimeout) is declared here once. Each of the four ends
// enters CLOSED, which nothing leaves, and fires onClosed once with Err:
//
//	end                                 State()  Err()
//	its own Abort, or Stack.Close       CLOSED   ErrReset (RFC 793's ABORT)
//	the peer's RST                      CLOSED   ErrReset
//	the user timeout                    CLOSED   ErrTimeout
//	a normal close                      CLOSED   nil
//
// A normal close ends when TIME_WAIT expires on the end that closed
// first, and when its FIN is acknowledged in LAST_ACK on the other; a
// peer's RST after a completed exchange counts as one (State.ResetErr).
package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/network"
)

// The parameters both TCPs share. E7 compares the two stacks on one
// path, which is fair only if they segment, buffer, give up and linger
// alike, so each value is defined here once and both stacks read it.
const (
	// MSS is the maximum segment payload in bytes.
	MSS = 1000
	// BufSize is each connection's send and receive buffer in bytes. A
	// receiver drops a segment that ends more than BufSize above its
	// cumulative point: no window it advertised could have named it.
	BufSize = 64 << 10
	// MaxRexmit bounds consecutive retransmission timeouts without
	// forward progress; one more aborts the connection with a timeout
	// (the user timeout of RFC 793 §3.8).
	MaxRexmit = 12
	// TimeWait is the 2MSL quiet period after a close.
	TimeWait = 10 * time.Second
)

// State is a connection's RFC 793 state.
type State int

// The RFC 793 states. The zero value is CLOSED.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var rfc793Names = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

// String returns the state's RFC 793 name ("ESTABLISHED", ...).
func (s State) String() string {
	if s >= 0 && int(s) < len(rfc793Names) {
		return rfc793Names[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ResetErr is what a peer's RST ends a connection in state s with: nil
// in LAST_ACK, CLOSING and TIME_WAIT, where it follows a completed
// exchange, and ErrReset before.
func (s State) ResetErr() error {
	if s == StateLastAck || s == StateClosing || s == StateTimeWait {
		return nil
	}
	return ErrReset
}

// ErrReset ends a connection aborted by its own application or by the
// peer's RST; ErrTimeout one that gave up retransmitting a SYN, a FIN
// or data (the user timeout).
var (
	ErrReset   = errors.New("transport: connection reset")
	ErrTimeout = errors.New("transport: connection timed out")
)

// Conn is the byte-stream surface of one connection, implemented by
// both TCPs. All methods run inside simulator events.
type Conn interface {
	// Write queues bytes, returning how many were accepted (the rest
	// did not fit the send buffer; retry on the writable callback).
	Write(p []byte) int
	// ReadAll drains everything received in order, without copying.
	// The slice is borrowed from the connection: it is valid until the
	// next ReadAll (or the concrete types' Read) on the same connection,
	// which reuses its storage. Consume or copy it before returning
	// from the callback that read it.
	ReadAll() []byte
	// EOF reports the peer finished and everything was read.
	EOF() bool
	// Close ends the outgoing stream.
	Close()
	// Abort ends the connection at once with an RST to the peer.
	Abort()
	// State reports the connection's state.
	State() State
	// Err returns the error the connection ended with, nil while it
	// lives or after a normal close.
	Err() error
	// LocalPort and RemotePort identify the flow; a dialled connection
	// and its accepted peer agree (local here equals remote there), so
	// many-flow drivers can match server-side accepts to client flows.
	LocalPort() uint16
	RemotePort() uint16
	// Callbacks registers the application's event hooks.
	Callbacks(onConnected, onReadable, onWritable func(), onClosed func(error))
}

// Stack is one host's transport implementation.
type Stack interface {
	// Name identifies the implementation ("sublayered", "monolithic",
	// "sublayered+shim").
	Name() string
	// Addr returns the host's network address.
	Addr() network.Addr
	// Listen binds a port; onAccept fires per inbound connection.
	Listen(port uint16, onAccept func(Conn)) error
	// Dial opens a connection.
	Dial(dst network.Addr, port uint16) (Conn, error)
	// Close aborts every open connection and releases every listener.
	Close() error
}
