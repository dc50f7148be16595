package si

// freeSpace is the free-space map: the free bytes of each heap block,
// kept as the leaves of a max segment tree, so the lowest block with room
// for a version is found in O(log n) steps rather than by a scan.
type freeSpace struct {
	n    int // blocks recorded
	size int // leaves: 0, or a power of two >= n
	// max[size+b] is block b's free bytes; max[i] for 0 < i < size is the
	// larger of max[2i] and max[2i+1].
	max []int32
}

// set records block b's free bytes. Blocks are recorded in order as the
// heap grows; one skipped over reads as full.
func (s *freeSpace) set(b, free int) {
	if b >= s.size {
		s.grow(b + 1)
	}
	s.n = max(s.n, b+1)
	i := s.size + b
	s.max[i] = int32(free)
	for i > 1 {
		i /= 2
		s.max[i] = max(s.max[2*i], s.max[2*i+1])
	}
}

// grow doubles the leaves until n fit and rebuilds the inner nodes.
func (s *freeSpace) grow(n int) {
	size := max(s.size, 64)
	for size < n {
		size *= 2
	}
	m := make([]int32, 2*size)
	copy(m[size:], s.max[s.size:s.size+s.n])
	for i := size - 1; i > 0; i-- {
		m[i] = max(m[2*i], m[2*i+1])
	}
	s.size, s.max = size, m
}

// first returns the lowest block in [lo, hi) with at least need bytes free,
// or hi if there is none; hi is at most the number of blocks recorded.
func (s *freeSpace) first(lo, hi, need int) int {
	if b := s.descend(1, 0, s.size, lo, hi, need); b >= 0 {
		return b
	}
	return hi
}

// descend searches node i, which covers blocks [nlo, nhi), for the lowest
// block in [lo, hi) with at least need bytes free; -1 if none. A node is
// entered only if its maximum fits, so the search visits O(log n) nodes:
// the two paths along the range's edges and one descent to the answer.
func (s *freeSpace) descend(i, nlo, nhi, lo, hi, need int) int {
	if nhi <= lo || hi <= nlo || int(s.max[i]) < need {
		return -1
	}
	if nhi-nlo == 1 {
		return nlo
	}
	mid := (nlo + nhi) / 2
	if b := s.descend(2*i, nlo, mid, lo, hi, need); b >= 0 {
		return b
	}
	return s.descend(2*i+1, mid, nhi, lo, hi, need)
}

// tightFree is the free space under which a block is passed over for good
// by the first-fit hint: too little for any typical version.
const tightFree = 64

// firstFit finds the lowest block at or above hint and below limit with at
// least need bytes free, and moves the hint past the leading run of blocks
// with under tightFree bytes free, up to the block found. It returns the
// block, whether one fits, and the new hint.
func (s *freeSpace) firstFit(hint, limit uint32, need int) (uint32, bool, uint32) {
	lo, hi := int(hint), min(int(limit), s.n)
	if lo >= hi {
		return 0, false, hint
	}
	b := s.first(lo, hi, need)
	// Every block in [lo, b) has less than need free, so the run ends at
	// the first with tightFree or more — when need is larger than that.
	newHint := uint32(s.first(lo, b, min(tightFree, need)))
	if b == hi {
		return 0, false, newHint
	}
	return uint32(b), true, newHint
}
