package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. This benchmark runs on a few cores of a shared
// host whose effective speed moves by up to 1.4× over minutes, which is
// more than any bound the run contract allows. A virtual-time workload
// has no clock of its own to hold against that: its host time means
// something only relative to how fast the host was while it ran. So
// between slices of the steady phase the flow driver runs short chunks
// of a fixed kernel that shares no code with the program — an event
// heap, a dependent random read in a 16 MiB table and a 1400-byte copy
// per step, the simulator's per-event diet — and times them. The
// phase's host speed is the reference step time over the measured one,
// and the end-to-end metrics of the virtual-time workloads are stated
// in reference-host seconds: host seconds × host speed. Over some
// thirty back-to-back runs per workload under shifting weather that cut
// the run-to-run spread of the steady time from 10–15 % to 4–6 % on bulk
// and lossy and on churn's monolithic phase (README, "Host weather").
//
// The probe's own time is taken out of the steady clock, it allocates
// nothing, and its table is mapped outside the Go heap so the
// collector's pacing does not see it.
const (
	probeTableBytes = 16 << 20
	// probeChunkSteps is one chunk, about 0.75 ms.
	probeChunkSteps = 4000
	// probeEvery is the least host time between two chunks, so the probe
	// takes at most ~7 % of any phase however short its slices are.
	probeEvery = 10 * time.Millisecond
	// probeRefNsPerStep defines the reference host: the step time of the
	// host described in the README in a quiet minute. Changing it
	// rescales every host-time metric of the virtual-time workloads.
	probeRefNsPerStep = 185.0
)

type probe struct {
	table []uint64
	bufs  [64][1500]byte
	heap  [1024]uint64

	ns, steps int64 // since reset
	last      time.Time
}

var hostProbe *probe

// theProbe returns the process's probe, building it on first use.
func theProbe() *probe {
	if hostProbe != nil {
		return hostProbe
	}
	p := &probe{}
	if b, err := syscall.Mmap(-1, 0, probeTableBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		p.table = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	} else {
		p.table = make([]uint64, probeTableBytes/8)
	}
	for i := range p.table {
		p.table[i] = mix64(uint64(i))
	}
	for i := range p.heap {
		p.heap[i] = uint64(i) * 7
	}
	p.chunk() // first touch of everything
	hostProbe = p
	return p
}

func (p *probe) reset() { p.ns, p.steps, p.last = 0, 0, time.Time{} }

// tick runs a chunk if probeEvery has passed since the last one. A nil
// *probe is inert: the ledger's connection rows drive flows unprobed.
func (p *probe) tick(sp *spans) {
	if p == nil || time.Since(p.last) < probeEvery {
		return
	}
	sp.begin(spanProbe)
	p.chunk()
	sp.end()
}

func (p *probe) chunk() {
	t0 := time.Now()
	h := &p.heap
	n := uint64(len(p.table))
	for s := 0; s < probeChunkSteps; s++ {
		k := h[0]
		idx := mix64(k) % n
		v := p.table[idx]
		p.table[idx] = v + k
		copy(p.bufs[k&63][:], p.bufs[(v>>7)&63][:1400])
		h[0] = k + v&1023 + 1
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	p.last = time.Now()
	p.ns += int64(p.last.Sub(t0))
	p.steps += probeChunkSteps
}

// seconds is the host time the probe took since reset.
func (p *probe) seconds() float64 { return float64(p.ns) / 1e9 }

// speed is the host's speed since reset relative to the reference
// host; 0 if no chunk ran.
func (p *probe) speed() float64 {
	if p.ns == 0 {
		return 0
	}
	return probeRefNsPerStep * float64(p.steps) / float64(p.ns)
}
