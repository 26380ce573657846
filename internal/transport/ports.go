package transport

// ephemeralBase is the first port Ports.Ephemeral hands out; the range
// runs from here to 65535 and wraps.
const ephemeralBase = 49152

// Ports tracks which local ports one host's stack has in use, so an
// ephemeral port is found without walking the connection table. Both
// TCP stacks Bind a port for each listener and each connection they
// insert into their demux table (passive opens share the listener's
// port, hence a count) and Unbind it on removal. The zero value is
// ready to use.
type Ports struct {
	next uint16
	used map[uint16]int
}

// Bind records one more user of port.
func (p *Ports) Bind(port uint16) {
	if p.used == nil {
		p.used = make(map[uint16]int)
	}
	p.used[port]++
}

// Unbind drops one user of port.
func (p *Ports) Unbind(port uint16) {
	if p.used[port] <= 1 {
		delete(p.used, port)
		return
	}
	p.used[port]--
}

// Ephemeral returns the next port nothing is bound to — 49152 upward,
// wrapping after 65535 — or 0 when the whole range is in use. It does
// not bind the port; the caller does when it inserts the connection.
func (p *Ports) Ephemeral() uint16 {
	if p.next == 0 {
		p.next = ephemeralBase
	}
	for i := 0; i < 1<<16-ephemeralBase; i++ {
		port := p.next
		p.next++
		if p.next == 0 {
			p.next = ephemeralBase
		}
		if p.used[port] == 0 {
			return port
		}
	}
	return 0
}
