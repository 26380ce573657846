package stuffing

import (
	"math"
	"math/rand"

	"repro/internal/bitio"
)

// Overhead models. The paper compares rules "using a random model": the
// HDLC rule costs 1 stuffed bit per 32 data bits, while the low-overhead
// rule costs 1 in 128. That model is the per-position completion
// probability 2^-|Watch| of an unconstrained window, which
// NaiveOverhead reproduces exactly. MarkovOverhead computes the true
// long-run stuff rate of the automaton under i.i.d. uniform data bits
// (which accounts for pattern self-overlap), and EmpiricalOverhead
// measures it by simulation; the three agree on the ranking.

// NaiveOverhead returns the paper's random-model overhead 2^-|Watch|:
// expected stuffed bits per data bit assuming each position completes
// the watch pattern independently.
func (r Rule) NaiveOverhead() float64 {
	return math.Pow(2, -float64(r.Watch.Len()))
}

// MarkovOverhead returns the exact long-run expected number of stuffed
// bits per data bit when data bits are i.i.d. uniform. It computes the
// stationary distribution of the stuffer automaton (states are the KMP
// states of Watch over the output stream, observed just before each
// data bit) by power iteration.
func (r Rule) MarkovOverhead() float64 {
	m := bitio.NewMatcher(r.Watch)
	W := r.Watch.Len()
	// next(s, d) with the stuffing side effect folded in: if the data
	// bit completes Watch, the stuff bit is emitted and fed too.
	next := func(s int, d bitio.Bit) (int, bool) {
		s2 := m.Next(s, d)
		if s2 == W {
			return m.Next(s2, r.Insert), true
		}
		return s2, false
	}
	n := W + 1
	pi := make([]float64, n)
	pi[0] = 1
	tmp := make([]float64, n)
	for iter := 0; iter < 4096; iter++ {
		for i := range tmp {
			tmp[i] = 0
		}
		for s := 0; s < n; s++ {
			if pi[s] == 0 {
				continue
			}
			for _, d := range []bitio.Bit{0, 1} {
				ns, _ := next(s, d)
				tmp[ns] += pi[s] * 0.5
			}
		}
		delta := 0.0
		for i := range pi {
			delta += math.Abs(tmp[i] - pi[i])
			pi[i] = tmp[i]
		}
		if delta < 1e-14 {
			break
		}
	}
	rate := 0.0
	for s := 0; s < n; s++ {
		for _, d := range []bitio.Bit{0, 1} {
			if _, stuffed := next(s, d); stuffed {
				rate += pi[s] * 0.5
			}
		}
	}
	return rate
}

// EmpiricalOverhead stuffs nBits of seeded uniform random data and
// returns observed stuffed bits per data bit.
func (r Rule) EmpiricalOverhead(nBits int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	w := bitio.NewWriter(nBits)
	for i := 0; i < nBits; i++ {
		w.WriteBit(bitio.Bit(rng.Intn(2)))
	}
	data := w.Bits()
	stuffed, err := r.Stuff(data)
	if err != nil {
		return math.NaN()
	}
	return float64(stuffed.Len()-data.Len()) / float64(data.Len())
}
