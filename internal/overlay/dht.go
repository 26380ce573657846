package overlay

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
)

// DHTConfig tunes one DHT member.
type DHTConfig struct {
	// Metrics, when non-nil, adopts the DHT's instruments.
	Metrics *metrics.Scope
}

// Lookup parameters, sized for 8-member experiment clusters rather than
// planet-scale tables: bucketWidth is Kademlia's k (the bucket width
// and result-set size), alpha the queries in flight per round,
// maxRounds the bound that makes an iterative lookup terminate under
// partitions, and dhtCallDeadline the overall RPC deadline per query.
const (
	bucketWidth     = 4
	alpha           = 2
	maxRounds       = 16
	dhtCallDeadline = time.Second
)

// DHT is a Kademlia-style distributed hash table member: a routing
// table of k-buckets over the XOR metric (id.go), a local key/value
// store, and iterative FIND_NODE/STORE/GET lookups built on the node's
// Call primitive. Lookups proceed in rounds — up to alpha queries in
// flight, a barrier per round — so the per-lookup hop count is simply
// the number of rounds, comparable across stacks and scenarios.
type DHT struct {
	n  *Node
	id ID

	buckets [160][]network.Addr
	store   map[string][]byte

	lookups, lookupRounds metrics.Counter
	getHits, getMisses    metrics.Counter
	served                metrics.Counter
	tableSize             metrics.Gauge
}

// NewDHT attaches a DHT member to a node runtime and registers its
// message handlers. Call under the backend lock.
func NewDHT(n *Node, cfg DHTConfig) *DHT {
	d := &DHT{n: n, id: NodeID(n.Addr()), store: make(map[string][]byte)}
	sc := cfg.Metrics
	sc.Register("lookups", &d.lookups)
	sc.Register("lookup_rounds", &d.lookupRounds)
	sc.Register("get_hits", &d.getHits)
	sc.Register("get_misses", &d.getMisses)
	sc.Register("queries_served", &d.served)
	sc.Register("table_size", &d.tableSize)
	n.Handle(KindFindNode, d.serveFindNode)
	n.Handle(KindStore, d.serveStore)
	n.Handle(KindGet, d.serveGet)
	return d
}

// --- routing table ---

// Observe records that the member at addr is alive: it moves to the
// tail of its k-bucket, entering if the bucket has room. The classic
// simplification applies — a full bucket keeps its oldest members
// rather than probing them — which is deterministic and adequate at
// experiment scale.
func (d *DHT) Observe(addr network.Addr) {
	if addr == d.n.Addr() {
		return
	}
	i := d.id.bucketIndex(NodeID(addr))
	if i < 0 {
		return
	}
	b := d.buckets[i]
	for j, a := range b {
		if a == addr {
			d.buckets[i] = append(append(b[:j:j], b[j+1:]...), addr)
			return
		}
	}
	if len(b) < bucketWidth {
		d.buckets[i] = append(b, addr)
		d.tableSize.Add(1)
	}
}

// closest returns up to max members nearest target from the routing
// table plus this member itself, closest first. Bucket slices iterate
// in insertion order, so the result is deterministic.
func (d *DHT) closest(target ID, max int) []network.Addr {
	addrs := []network.Addr{d.n.Addr()}
	for i := range d.buckets {
		addrs = append(addrs, d.buckets[i]...)
	}
	sortByDistance(addrs, target)
	if len(addrs) > max {
		addrs = addrs[:max]
	}
	return addrs
}

// --- server side ---

func (d *DHT) serveFindNode(from network.Addr, payload []byte) []byte {
	d.served.Inc()
	d.Observe(from)
	if len(payload) != len(ID{}) {
		return appendAddrs(nil, nil)
	}
	var target ID
	copy(target[:], payload)
	return appendAddrs(nil, d.closest(target, bucketWidth))
}

func (d *DHT) serveStore(from network.Addr, payload []byte) []byte {
	d.served.Inc()
	d.Observe(from)
	key, rest, ok := readBytes(payload)
	if !ok {
		return []byte{0}
	}
	val, _, ok := readBytes(rest)
	if !ok {
		return []byte{0}
	}
	d.store[string(key)] = append([]byte(nil), val...)
	return []byte{1}
}

func (d *DHT) serveGet(from network.Addr, payload []byte) []byte {
	d.served.Inc()
	d.Observe(from)
	key, _, ok := readBytes(payload)
	if !ok {
		return []byte{0}
	}
	if v, found := d.store[string(key)]; found {
		return appendBytes([]byte{1}, v)
	}
	return appendAddrs([]byte{0}, d.closest(KeyID(string(key)), bucketWidth))
}

// --- iterative lookups ---

// lookup is one iterative query's state machine. It lives entirely in
// node-event context: rounds advance only when every call of the
// previous round has resolved (reply or deadline).
type lookup struct {
	target   ID
	key      string // non-empty: GET semantics over KindGet
	short    []network.Addr
	queried  map[network.Addr]bool
	inflight int
	rounds   int
	finished bool
	value    []byte
	found    bool
	done     func(closest []network.Addr, rounds int, value []byte, found bool)
}

// Join seeds the routing table and runs a self-lookup to populate it —
// the standard Kademlia bootstrap. done (optional) fires when the
// self-lookup completes.
func (d *DHT) Join(seeds []network.Addr, done func()) {
	for _, s := range seeds {
		d.Observe(s)
	}
	d.Lookup(d.id, func([]network.Addr, int, bool) {
		if done != nil {
			done()
		}
	})
}

// Lookup runs an iterative FIND_NODE toward target and reports the k
// closest members found and the hop (round) count. ok is false when
// the lookup hit maxRounds without converging.
func (d *DHT) Lookup(target ID, done func(closest []network.Addr, rounds int, ok bool)) {
	d.start(&lookup{
		target: target,
		done: func(closest []network.Addr, rounds int, _ []byte, _ bool) {
			done(closest, rounds, rounds < maxRounds)
		},
	})
}

// Get resolves key: it walks toward KeyID(key) querying KindGet, and
// finishes early as soon as any member returns the value.
func (d *DHT) Get(key string, done func(value []byte, rounds int, found bool)) {
	d.start(&lookup{
		target: KeyID(key),
		key:    key,
		done: func(_ []network.Addr, rounds int, value []byte, found bool) {
			if found {
				d.getHits.Inc()
			} else {
				d.getMisses.Inc()
			}
			done(value, rounds, found)
		},
	})
}

// Store writes key=value onto the k members closest to KeyID(key):
// one lookup to locate them, then a STORE fan-out. done reports how
// many replicas acknowledged and the lookup's hop count.
func (d *DHT) Store(key string, value []byte, done func(stored int, rounds int)) {
	if done == nil {
		done = func(int, int) {}
	}
	payload := appendBytes(appendBytes(nil, []byte(key)), value)
	d.Lookup(KeyID(key), func(closest []network.Addr, rounds int, _ bool) {
		targets := closest
		if len(targets) > bucketWidth {
			targets = targets[:bucketWidth]
		}
		stored, pending := 0, 0
		finish := func() {
			if pending == 0 {
				done(stored, rounds)
			}
		}
		for _, t := range targets {
			if t == d.n.Addr() {
				d.store[key] = append([]byte(nil), value...)
				stored++
				continue
			}
			pending++
			d.n.Call(t, KindStore, payload, dhtCallDeadline, func(resp []byte, err error) {
				pending--
				if err == nil && len(resp) == 1 && resp[0] == 1 {
					stored++
				}
				finish()
			})
		}
		finish()
	})
}

func (d *DHT) start(lk *lookup) {
	d.lookups.Inc()
	lk.queried = map[network.Addr]bool{d.n.Addr(): true}
	lk.short = d.closest(lk.target, 3*bucketWidth)
	d.step(lk)
}

func (d *DHT) step(lk *lookup) {
	if lk.finished {
		return
	}
	var batch []network.Addr
	topQueried := true
	for i, a := range lk.short {
		if i < bucketWidth && !lk.queried[a] {
			topQueried = false
		}
		if len(batch) < alpha && !lk.queried[a] {
			batch = append(batch, a)
		}
	}
	if len(batch) == 0 || topQueried || lk.rounds >= maxRounds {
		d.finish(lk)
		return
	}
	lk.rounds++
	d.lookupRounds.Inc()
	for _, a := range batch {
		a := a
		lk.queried[a] = true
		lk.inflight++
		if lk.key != "" {
			d.n.Call(a, KindGet, appendBytes(nil, []byte(lk.key)), dhtCallDeadline,
				func(resp []byte, err error) { d.onGetReply(lk, a, resp, err) })
		} else {
			d.n.Call(a, KindFindNode, lk.target[:], dhtCallDeadline,
				func(resp []byte, err error) { d.onFindReply(lk, a, resp, err) })
		}
	}
}

func (d *DHT) onFindReply(lk *lookup, from network.Addr, resp []byte, err error) {
	lk.inflight--
	if err == nil {
		d.Observe(from)
		if addrs, _, ok := readAddrs(resp); ok {
			d.merge(lk, addrs)
		}
	}
	if lk.inflight == 0 {
		d.step(lk)
	}
}

func (d *DHT) onGetReply(lk *lookup, from network.Addr, resp []byte, err error) {
	lk.inflight--
	if err == nil && len(resp) >= 1 {
		d.Observe(from)
		if resp[0] == 1 {
			if v, _, ok := readBytes(resp[1:]); ok && !lk.finished {
				lk.value = append([]byte(nil), v...)
				lk.found = true
				d.finish(lk)
				return
			}
		} else if addrs, _, ok := readAddrs(resp[1:]); ok {
			d.merge(lk, addrs)
		}
	}
	if lk.inflight == 0 {
		d.step(lk)
	}
}

// merge folds newly learned members into the shortlist, re-sorts by
// distance and trims — the shortlist stays a bounded frontier.
func (d *DHT) merge(lk *lookup, addrs []network.Addr) {
	have := make(map[network.Addr]bool, len(lk.short))
	for _, a := range lk.short {
		have[a] = true
	}
	for _, a := range addrs {
		d.Observe(a)
		if !have[a] {
			have[a] = true
			lk.short = append(lk.short, a)
		}
	}
	sortByDistance(lk.short, lk.target)
	if len(lk.short) > 3*bucketWidth {
		lk.short = lk.short[:3*bucketWidth]
	}
}

func (d *DHT) finish(lk *lookup) {
	if lk.finished {
		return
	}
	lk.finished = true
	closest := lk.short
	if len(closest) > bucketWidth {
		closest = closest[:bucketWidth]
	}
	lk.done(closest, lk.rounds, lk.value, lk.found)
}
