package seg

// RangeSet tracks which absolute stream offsets have been received —
// the receiver-side RD state used for duplicate suppression, the
// cumulative acknowledgement point, and SACK block generation. Ranges
// are half-open [from, to) and kept coalesced.
type RangeSet struct {
	ranges [][2]uint64 // sorted, disjoint, non-adjacent
}

// Add marks [from, to) received. It reports whether any byte in the
// range was new. The set is updated in place: the ranges [from, to)
// touches merge into one (in-order arrival extends the last range), or
// a slot opens for a new one.
func (s *RangeSet) Add(from, to uint64) bool {
	if from >= to {
		return false
	}
	rs := s.ranges
	// rs[i:j] are the ranges [from, to) overlaps or touches.
	i := 0
	for i < len(rs) && rs[i][1] < from {
		i++
	}
	j := i
	for j < len(rs) && rs[j][0] <= to {
		j++
	}
	if i == j {
		rs = append(rs, [2]uint64{})
		copy(rs[i+1:], rs[i:])
		rs[i] = [2]uint64{from, to}
		s.ranges = rs
		return true
	}
	if rs[i][0] <= from && to <= rs[i][1] {
		return false // one range already covers it
	}
	if rs[i][0] < from {
		from = rs[i][0]
	}
	if rs[j-1][1] > to {
		to = rs[j-1][1]
	}
	rs[i] = [2]uint64{from, to}
	s.ranges = append(rs[:i+1], rs[j:]...)
	return true
}

// Contains reports whether every byte of [from, to) is present.
func (s *RangeSet) Contains(from, to uint64) bool {
	for _, r := range s.ranges {
		if r[0] <= from && to <= r[1] {
			return true
		}
	}
	return from >= to
}

// ContiguousFrom returns the end of the range containing base, or base
// itself if absent — the cumulative acknowledgement point.
func (s *RangeSet) ContiguousFrom(base uint64) uint64 {
	for _, r := range s.ranges {
		if r[0] <= base && base < r[1] {
			return r[1]
		}
	}
	return base
}

// BlocksAbove returns up to max ranges strictly above cum, most
// recently useful first (here: ascending; callers reorder if needed) —
// SACK block material.
func (s *RangeSet) BlocksAbove(cum uint64, max int) [][2]uint64 {
	if max <= 0 {
		return nil
	}
	var out [][2]uint64
	for _, r := range s.ranges {
		if r[1] <= cum {
			continue
		}
		from := r[0]
		if from < cum {
			continue // the cumulative range itself
		}
		out = append(out, [2]uint64{from, r[1]})
		if len(out) == max {
			break
		}
	}
	return out
}

// Ranges returns a copy of the coalesced ranges.
func (s *RangeSet) Ranges() [][2]uint64 {
	out := make([][2]uint64, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// Len returns the total number of bytes covered.
func (s *RangeSet) Len() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r[1] - r[0]
	}
	return n
}
