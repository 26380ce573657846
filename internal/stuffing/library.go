package stuffing

import (
	"sort"

	"repro/internal/bitio"
)

// The paper: "We also created a library of stuffing protocols that our
// proof deems valid; it found 66 alternate stuffing rules, some of which
// had less overhead than HDLC." This file reproduces that experiment:
// enumerate a family of candidate rules, run the decision procedure
// over each, and collect the valid ones ranked by overhead.

// Candidates enumerates the rule family for flags of length flagLen:
// every flag F in {0,1}^flagLen, every watch pattern that occurs as a
// substring of F, of every length from 1 to
// flagLen-1, and both stuff bits. Duplicate (F, W, b) triples arising
// from W occurring at several positions in F are emitted once.
//
// The substring restriction loses no valid rule: if W does not occur in
// F, the data string D = F is stuffed to itself and the payload carries
// a verbatim flag (TestSubstringLemma checks it on the unrestricted
// family).
func Candidates(flagLen int) []Rule {
	var out []Rule
	for fv := 0; fv < 1<<uint(flagLen); fv++ {
		flag := intBits(fv, flagLen)
		seen := make(map[string]bool)
		for wl := 1; wl < flagLen; wl++ {
			for at := 0; at+wl <= flagLen; at++ {
				w := flag.Slice(at, at+wl)
				key := w.String()
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out,
					Rule{Flag: flag, Watch: w, Insert: 0},
					Rule{Flag: flag, Watch: w, Insert: 1},
				)
			}
		}
	}
	return out
}

// Library runs the decision procedure over Candidates(flagLen) and
// returns every valid rule, sorted by (MarkovOverhead, flag, watch,
// stuff). This is the reproduction of the paper's verified rule
// library.
func Library(flagLen int) []Rule {
	var valid []Rule
	var cost []float64
	for _, r := range Candidates(flagLen) {
		if r.Validate() == nil {
			valid = append(valid, r)
			cost = append(cost, r.MarkovOverhead())
		}
	}
	order := make([]int, len(valid))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if cost[i] != cost[j] {
			return cost[i] < cost[j]
		}
		if s := valid[i].Flag.String(); s != valid[j].Flag.String() {
			return s < valid[j].Flag.String()
		}
		if s := valid[i].Watch.String(); s != valid[j].Watch.String() {
			return s < valid[j].Watch.String()
		}
		return valid[i].Insert < valid[j].Insert
	})
	out := make([]Rule, len(valid))
	for i, idx := range order {
		out[i] = valid[idx]
	}
	return out
}

func intBits(v, n int) bitio.Bits {
	w := bitio.NewWriter(n)
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(bitio.Bit(v>>uint(i)) & 1)
	}
	return w.Bits()
}
