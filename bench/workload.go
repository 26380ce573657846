package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"repro/internal/netsim"
)

// The four workloads. Each fixes the work of one rep; -scale shrinks
// it for smoke runs only. The sizes are what one rep (every phase)
// finishes in roughly two seconds on the 2-core host the README
// describes, so a run of run_seconds holds enough reps for a median.
const (
	wBulk  = "bulk"
	wChurn = "churn"
	wLossy = "lossy"
	wRPC   = "rpc-rt"
)

var workloadNames = []string{wBulk, wChurn, wLossy, wRPC}

// streamSpec describes a byte-stream workload (bulk, churn, lossy):
// the world shape and the flow plan's parameters.
type streamSpec struct {
	pairs, hops int
	link        netsim.LinkConfig
	flows       int
	// minSize..maxSize bound the client→server bytes of a flow, drawn
	// log-uniformly; echoBack makes the server stream the same number
	// of bytes back on the same connection.
	minSize, maxSize int
	echoBack         bool
	// Arrivals are uniform inside `cycles` ON windows of length on,
	// separated by off (the E16 shape); cycles == 0 starts every flow
	// at once.
	cycles  int
	on, off time.Duration
}

func streamSpecFor(name string, scale float64) streamSpec {
	switch name {
	case wBulk:
		// One connection streaming both ways over a clean path with no
		// rate limit: the per-segment data path does all the work.
		n := scaled(16<<20, scale, 64<<10)
		return streamSpec{pairs: 1, hops: 4, link: netsim.LinkConfig{Delay: time.Millisecond},
			flows: 1, minSize: n, maxSize: n, echoBack: true}
	case wChurn:
		// The E16 ScalingConfig shape: many short flows, so Dial/accept,
		// per-connection instruments, CM timers and teardown dominate.
		return streamSpec{pairs: 8, hops: 2,
			link:  netsim.LinkConfig{Delay: time.Millisecond, RateBps: 20_000_000, QueueLimit: 256},
			flows: scaled(10_000, scale, 16), minSize: 1 << 10, maxSize: 4 << 10,
			cycles: 4, on: 2 * time.Second, off: time.Second}
	case wLossy:
		// Off-fast-path work: retransmit/SACK/RTO, reassembly with
		// holes, congestion control, the impairment pipeline.
		n := scaled(8<<20, scale, 32<<10)
		return streamSpec{pairs: 1, hops: 4,
			link: netsim.LinkConfig{Delay: time.Millisecond, RateBps: 100_000_000, QueueLimit: 64,
				LossProb: 0.01, ReorderProb: 0.005, DupProb: 0.001},
			flows: 8, minSize: n, maxSize: n}
	}
	panic("bench: no stream spec for " + name)
}

// rpcSpec describes the closed-loop echo workload.
type rpcSpec struct {
	nodes    int
	link     netsim.LinkConfig
	callers  []int // member addresses issuing calls, one outstanding each
	calls    int   // per caller per rep
	payload  int
	deadline time.Duration
}

func rpcSpecFor(scale float64) rpcSpec {
	return rpcSpec{nodes: 4, link: netsim.LinkConfig{Delay: time.Millisecond},
		callers: []int{1, 3}, calls: scaled(300, scale, 12), payload: 64,
		deadline: 5 * time.Second}
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// flowPlan is one planned connection: which pair carries it, when it
// dials (virtual offset from the start of the steady phase), how many
// bytes go each way, and the key of its payload stream.
type flowPlan struct {
	pair  int
	start time.Duration
	size  int
	echo  bool
	key   uint64
}

// planFlows is a pure function of (spec, seed): one planning RNG
// consumed in flow order, the same construction the workload engine
// uses for E11/E16.
func planFlows(spec streamSpec, seed int64) []flowPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	lnMin, lnMax := math.Log(float64(spec.minSize)), math.Log(float64(spec.maxSize))
	plan := make([]flowPlan, spec.flows)
	for i := range plan {
		size := int(math.Round(math.Exp(lnMin + rng.Float64()*(lnMax-lnMin))))
		var at time.Duration
		if spec.cycles > 0 {
			at = time.Duration(i%spec.cycles)*(spec.on+spec.off) + time.Duration(rng.Int63n(int64(spec.on)))
		}
		plan[i] = flowPlan{pair: i % spec.pairs, start: at, size: size, echo: spec.echoBack,
			key: mix64(uint64(seed)<<20 ^ uint64(i))}
	}
	return plan
}

// --- payload streams ---
//
// A payload is a position-addressable pseudo-random stream: byte i of
// stream k is byte i%8 of mix64(k + i/8). The sender generates a chunk
// at its write offset, the receiver regenerates the same words at its
// read offset and compares, so no payload is ever retained and the
// generator costs about a nanosecond per eight bytes.

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillStream writes bytes [off, off+len(p)) of stream key into p.
func fillStream(key, off uint64, p []byte) {
	var w [8]byte
	for len(p) > 0 {
		r := int(off % 8)
		if r == 0 && len(p) >= 8 {
			binary.LittleEndian.PutUint64(p, mix64(key+off/8))
			p, off = p[8:], off+8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], mix64(key+off/8))
		n := copy(p, w[r:])
		p, off = p[n:], off+uint64(n)
	}
}

// checkStream reports whether p equals bytes [off, off+len(p)) of
// stream key.
func checkStream(key, off uint64, p []byte) bool {
	var w [8]byte
	for len(p) > 0 {
		r := int(off % 8)
		if r == 0 && len(p) >= 8 {
			if binary.LittleEndian.Uint64(p) != mix64(key+off/8) {
				return false
			}
			p, off = p[8:], off+8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], mix64(key+off/8))
		n := min(8-r, len(p))
		if string(p[:n]) != string(w[r:r+n]) {
			return false
		}
		p, off = p[n:], off+uint64(n)
	}
	return true
}
