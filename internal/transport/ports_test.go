package transport

import (
	"math/rand"
	"testing"
)

func TestEphemeralStartsAt49152AndCounts(t *testing.T) {
	var p Ports
	for want := uint16(49152); want < 49160; want++ {
		got := p.Ephemeral()
		if got != want {
			t.Fatalf("Ephemeral() = %d, want %d", got, want)
		}
		p.Bind(got)
	}
}

func TestEphemeralWrapsAndSkipsBoundPorts(t *testing.T) {
	p := Ports{next: 65534}
	p.Bind(65535)
	p.Bind(49152) // e.g. a listener in the ephemeral range
	p.Bind(49153)
	for _, want := range []uint16{65534, 49154} {
		got := p.Ephemeral()
		if got != want {
			t.Fatalf("Ephemeral() = %d, want %d", got, want)
		}
		p.Bind(got)
	}
}

func TestPortReusedOnlyAfterLastUnbind(t *testing.T) {
	var p Ports
	// A listener in the ephemeral range with two accepted connections
	// holds its port three times over.
	p.Bind(49152)
	p.Bind(49152)
	p.Bind(49152)
	p.Unbind(49152)
	p.Unbind(49152)
	p.next = 49152
	if got := p.Ephemeral(); got != 49153 {
		t.Fatalf("Ephemeral() = %d with 49152 still bound once, want 49153", got)
	}
	p.Unbind(49152)
	p.next = 49152
	if got := p.Ephemeral(); got != 49152 {
		t.Fatalf("Ephemeral() = %d after the last Unbind, want 49152", got)
	}
}

func TestEphemeralExhaustionReturnsZero(t *testing.T) {
	var p Ports
	for port := 49152; port <= 65535; port++ {
		p.Bind(uint16(port))
	}
	if got := p.Ephemeral(); got != 0 {
		t.Fatalf("Ephemeral() = %d with every port bound, want 0", got)
	}
	p.Unbind(60000)
	if got := p.Ephemeral(); got != 60000 {
		t.Fatalf("Ephemeral() = %d, want the one free port 60000", got)
	}
}

// scanPorts is the allocator both stacks used to carry: walk every
// live connection per candidate port. Ports must hand out the same
// sequence.
type scanPorts struct {
	next      uint16
	conns     []uint16 // local port of each live connection
	listeners map[uint16]bool
}

func (s *scanPorts) ephemeral() uint16 {
	for i := 0; i < 1<<14; i++ {
		port := s.next
		s.next++
		if s.next == 0 {
			s.next = 49152
		}
		busy := s.listeners[port]
		for _, c := range s.conns {
			busy = busy || c == port
		}
		if !busy {
			return port
		}
	}
	return 0
}

func TestEphemeralMatchesConnectionScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Start near the top so the run wraps several times.
	ref := &scanPorts{next: 65000, listeners: map[uint16]bool{80: true, 49200: true, 65535: true}}
	p := Ports{next: 65000}
	for port := range ref.listeners {
		p.Bind(port)
	}
	for step := 0; step < 20000; step++ {
		switch {
		case len(ref.conns) > 0 && rng.Intn(100) < 45: // close a connection
			i := rng.Intn(len(ref.conns))
			p.Unbind(ref.conns[i])
			ref.conns[i] = ref.conns[len(ref.conns)-1]
			ref.conns = ref.conns[:len(ref.conns)-1]
		case rng.Intn(100) < 10: // passive open on a listener's port
			ref.conns = append(ref.conns, 49200)
			p.Bind(49200)
		default: // dial
			want, got := ref.ephemeral(), p.Ephemeral()
			if got != want {
				t.Fatalf("step %d: Ephemeral() = %d, connection scan gives %d", step, got, want)
			}
			ref.conns = append(ref.conns, got)
			p.Bind(got)
		}
	}
}
