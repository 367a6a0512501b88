// Package denseset provides the one integer set of the repository: a
// two-level bitmap behind every FREE, DONE and TRY of core.Proc, from the
// 1024-id rounds of the dispatcher to the million-block levels of
// IterativeKK.
//
// Level one is a plain bitmap, one bit per id. Level two is one population
// count per block of 64 words (4096 ids). Insert, Delete and Contains
// touch one word and one counter. Everything that searches — Select,
// SelectExcluding (the paper's rank(SET1, SET2, i)), Rank, Min, Max,
// Ascend — skips whole blocks by their counts and scans words only inside
// the blocks that matter: at most U/4096 counter reads plus 64 word reads
// per block entered, for a universe of U ids. Clear zeroes only occupied
// blocks, so emptying a TRY set of m−1 announcements costs m−1 blocks
// whatever the universe. A round-sized set (≤ 4096 ids) is one block: it
// scans the words it has, as a flat bitmap would, plus one counter.
//
// The cost of these operations is the machine's, not the model's: core
// charges work at the paper's O(log n) per set operation whatever the
// structure costs (DESIGN.md §3).
package denseset

import "math/bits"

// blockWords is the number of bitmap words one block counter covers.
const blockWords = 64

// Set is a bitmap set of non-negative ints. The zero value is an empty
// set; storage grows on demand and is retained across Clear/ResetRange,
// so a set that is repeatedly filled and cleared to a similar size
// reaches a steady state where no operation allocates (the property the
// round-based runtime's hot path depends on — see Reserve).
type Set struct {
	words []uint64
	// cnt[b] is the number of elements in block b, the words
	// [b*blockWords, min((b+1)*blockWords, len(words))): words is NOT
	// padded to whole blocks, so a short set scans and clears only the
	// words it has.
	cnt []uint16
	n   int // element count
}

// New returns an empty set. If keys are given they are inserted.
func New(keys ...int) *Set {
	s := &Set{}
	for _, k := range keys {
		s.Insert(k)
	}
	return s
}

// NewRange returns the set {lo, lo+1, ..., hi}.
func NewRange(lo, hi int) *Set {
	s := &Set{}
	s.InsertRange(lo, hi)
	return s
}

// Reserve grows the bitmap so values in [0..n] can be inserted without
// any further allocation.
func (s *Set) Reserve(n int) {
	s.grow(n)
}

// grow ensures bit v is addressable.
func (s *Set) grow(v int) {
	need := v>>6 + 1
	if need <= len(s.words) {
		return
	}
	s.words = append(s.words, make([]uint64, need-len(s.words))...)
	s.cnt = append(s.cnt, make([]uint16, (need+blockWords-1)/blockWords-len(s.cnt))...)
}

// block returns the words of block b.
func (s *Set) block(b int) []uint64 {
	return s.words[b*blockWords : min((b+1)*blockWords, len(s.words))]
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.n }

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if v < 0 || v>>6 >= len(s.words) {
		return false
	}
	return s.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Insert adds v to the set. It reports whether v was absent. v must be
// non-negative.
func (s *Set) Insert(v int) bool {
	if v>>6 >= len(s.words) {
		s.grow(v)
	}
	w := &s.words[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	s.cnt[v>>12]++
	s.n++
	return true
}

// Delete removes v from the set. It reports whether v was present.
func (s *Set) Delete(v int) bool {
	if v < 0 || v>>6 >= len(s.words) {
		return false
	}
	w := &s.words[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	if *w&mask == 0 {
		return false
	}
	*w &^= mask
	s.cnt[v>>12]--
	s.n--
	return true
}

// Clear removes all elements, keeping the storage. Only occupied blocks
// are touched.
func (s *Set) Clear() {
	if s.n == 0 {
		return
	}
	for b, c := range s.cnt {
		if c != 0 {
			clear(s.block(b))
			s.cnt[b] = 0
		}
	}
	s.n = 0
}

// ResetRange clears the set and refills it with {lo, lo+1, ..., hi}.
// lo > hi leaves the set empty. lo must be non-negative.
func (s *Set) ResetRange(lo, hi int) {
	s.Clear()
	s.InsertRange(lo, hi)
}

// InsertRange adds {lo, lo+1, ..., hi} to the set by writing full words
// plus two edge masks — O((hi−lo)/64) with no per-element work. lo > hi
// adds nothing. lo must be non-negative.
func (s *Set) InsertRange(lo, hi int) {
	if lo > hi {
		return
	}
	s.grow(hi)
	loW, hiW := lo>>6, hi>>6
	for b := loW / blockWords; b <= hiW/blockWords; b++ {
		added := 0
		for k := max(loW, b*blockWords); k <= min(hiW, (b+1)*blockWords-1); k++ {
			mask := ^uint64(0)
			if k == loW {
				mask &= ^uint64(0) << (uint(lo) & 63)
			}
			if k == hiW {
				mask &= ^uint64(0) >> (63 - uint(hi)&63)
			}
			added += bits.OnesCount64(mask &^ s.words[k])
			s.words[k] |= mask
		}
		s.cnt[b] += uint16(added)
		s.n += added
	}
}

// OrWords adds every id whose bit is set in words, read as the bitmap of
// [base, base+64·len(words)): bit b of words[i] is id base+64·i+b. base
// must be a non-negative multiple of 64. One OR and one popcount per
// word, no per-element work — how a bitmap kept elsewhere (the
// dispatcher's durable journal rows) enters the set.
func (s *Set) OrWords(base int, words []uint64) {
	if len(words) == 0 {
		return
	}
	s.grow(base + len(words)<<6 - 1)
	for i, w := range words {
		k := base>>6 + i
		if added := bits.OnesCount64(w &^ s.words[k]); added != 0 {
			s.words[k] |= w
			s.cnt[k/blockWords] += uint16(added)
			s.n += added
		}
	}
}

// Min returns the smallest element; ok is false when the set is empty.
func (s *Set) Min() (v int, ok bool) {
	return s.Select(1)
}

// Max returns the largest element; ok is false when the set is empty.
func (s *Set) Max() (v int, ok bool) {
	return s.Select(s.n)
}

// Select returns the element with rank i (1-indexed: Select(1) is the
// minimum). ok is false when i is out of range.
func (s *Set) Select(i int) (v int, ok bool) {
	if i < 1 || i > s.n {
		return 0, false
	}
	for b, c := range s.cnt {
		if i > int(c) {
			i -= int(c)
			continue
		}
		for k, w := range s.block(b) {
			c := bits.OnesCount64(w)
			if i > c {
				i -= c
				continue
			}
			return (b*blockWords+k)<<6 + selectInWord(w, i), true
		}
	}
	return 0, false // unreachable: i ≤ s.n
}

// Rank returns the number of elements ≤ v.
func (s *Set) Rank(v int) int {
	if v < 0 {
		return 0
	}
	vw := v >> 6
	if vw >= len(s.words) {
		return s.n
	}
	r := 0
	vb := vw / blockWords
	for _, c := range s.cnt[:vb] {
		r += int(c)
	}
	for _, w := range s.words[vb*blockWords : vw] {
		r += bits.OnesCount64(w)
	}
	return r + bits.OnesCount64(s.words[vw]&(^uint64(0)>>(63-uint(v)&63)))
}

// SelectExcluding returns the element of rank i (1-indexed) in the set
// difference s \ excl — the paper's rank(SET1, SET2, i). A block where
// excl holds nothing is taken at its count; only a block excl reaches
// into, and the block that holds the answer, are scanned as the word-wise
// difference s &^ excl. ok is false when s \ excl has fewer than i
// elements.
func (s *Set) SelectExcluding(excl *Set, i int) (v int, ok bool) {
	if i < 1 {
		return 0, false
	}
	ew := excl.words
	for b, c := range s.cnt {
		if c == 0 {
			continue
		}
		if (b >= len(excl.cnt) || excl.cnt[b] == 0) && i > int(c) {
			i -= int(c)
			continue
		}
		base := b * blockWords
		for k, w := range s.block(b) {
			// excl's bitmap can end inside this block, before s's does.
			if base+k < len(ew) {
				w &^= ew[base+k]
			}
			c := bits.OnesCount64(w)
			if i > c {
				i -= c
				continue
			}
			return (base+k)<<6 + selectInWord(w, i), true
		}
	}
	return 0, false
}

// selectInWord returns the bit position of the i-th (1-indexed) set bit
// of w; i must be ≤ popcount(w).
func selectInWord(w uint64, i int) int {
	for ; i > 1; i-- {
		w &= w - 1 // clear lowest set bit
	}
	return bits.TrailingZeros64(w)
}

// Ascend calls fn for each element in ascending order until fn returns
// false.
func (s *Set) Ascend(fn func(v int) bool) {
	for b, c := range s.cnt {
		if c == 0 {
			continue
		}
		base := b * blockWords
		for k, w := range s.block(b) {
			for w != 0 {
				if !fn((base+k)<<6 + bits.TrailingZeros64(w)) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Slice returns all elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.n)
	s.Ascend(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n}
	if len(s.words) > 0 {
		c.words = make([]uint64, len(s.words))
		copy(c.words, s.words)
		c.cnt = make([]uint16, len(s.cnt))
		copy(c.cnt, s.cnt)
	}
	return c
}
