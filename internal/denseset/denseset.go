// Package denseset provides the one integer set of the repository: a
// counted bitmap behind every FREE of core.Proc, from the 1024-id rounds
// of the dispatcher to the million-block levels of IterativeKK. TRY, at
// most m−1 ids, is a sorted []int beside it.
//
// Level one is a bitmap, one bit per id. Level two keeps, per block of 64
// words (4096 ids), a count and a mask of its nonzero words; level three,
// per super-block of 64 blocks (2^18 ids), a count and a mask of its
// nonempty blocks. All three share one []uint64, so a set grows or clones
// in one allocation, and Make lays k sets in one. Insert, Delete and
// Contains touch one word and its counters. Select, SelectSkipping (the
// paper's rank(SET1, SET2, i), SET2 a sorted list), Min and Max skip
// super-blocks, then blocks, by their counts — less, for SelectSkipping,
// the listed ids the set holds there — and scan words only in the block
// holding the answer: at most U/2^18 + 64 + 64 reads for a universe of U
// ids, plus two per listed id. SelectFrom walks from a Finger (a word and
// the count below it) to an answer at most 8 words away, else falls back
// to SelectSkipping. Ascend and Clear follow the masks. A set of one
// block (every dispatcher round) pays what a flat bitmap would.
//
// The cost of these operations is the machine's, not the model's: core
// charges work at the paper's O(log n) per set operation whatever the
// structure costs (DESIGN.md §3).
package denseset

import "math/bits"

// blockWords is the number of bitmap words one block covers, and the
// number of blocks one super-block covers.
const blockWords = 64

// Set is a bitmap set of non-negative ints. The zero value is an empty
// set; storage grows on demand and is retained across Clear/ResetRange,
// so a set that is repeatedly filled and cleared to a similar size
// reaches a steady state where no operation allocates (the property the
// round-based runtime's hot path depends on — see Reserve).
type Set struct {
	// words is the bitmap, NOT padded to whole blocks, and the head of
	// the one array backing every level: words[:cap(words)].
	words []uint64
	// cnt[b] counts block b's elements, the words [b*blockWords,
	// min((b+1)*blockWords, len(words))); wmask[b] marks its nonzero ones.
	// scnt[j] and bmask[j] do the same for super-block j's blocks; both
	// are empty in a set of one block. Insert sets a mask bit and Clear
	// resets it; Delete leaves it, so a mask may name an emptied word.
	cnt, wmask, scnt, bmask []uint64
	n                       int // element count
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

// footprint is the length of the array that holds nw words and their
// levels. A set that fits one block has no super-block.
func footprint(nw int) int {
	nb := (nw + blockWords - 1) / blockWords
	if nw <= blockWords {
		return nw + 2*nb
	}
	return nw + 2*(nb+(nb+blockWords-1)/blockWords)
}

// carve lays nw words and their levels over a, footprint(nw) long; the
// words' cap is len(a), what Clone copies.
func (s *Set) carve(a []uint64, nw int) {
	nb := (nw + blockWords - 1) / blockWords
	ns := (len(a) - nw - 2*nb) / 2
	s.words, a = a[:nw:len(a)], a[nw:]
	s.cnt, s.wmask, a = a[:nb], a[nb:2*nb], a[2*nb:]
	s.scnt, s.bmask = a[:ns], a[ns:]
}

// Make returns k empty sets reserved for [0..n] in one array, each padded
// to whole cache lines (8 words) so that processes updating their sets
// side by side do not false-share: the FREE sets of a system's processes
// in two allocations.
func Make(k, n int) []Set {
	nw := n>>6 + 1
	f := footprint(nw)
	stride := (f + 7) &^ 7
	a := make([]uint64, k*stride)
	ss := make([]Set, k)
	for i := range ss {
		ss[i].carve(a[i*stride:i*stride+f:i*stride+f], nw)
	}
	return ss
}

// grow ensures bit v is addressable, in one allocation that at least
// doubles the bitmap, and recounts the levels of the words it keeps.
func (s *Set) grow(v int) {
	need := v>>6 + 1
	if need <= len(s.words) {
		return
	}
	old, nw := s.words, max(need, 2*len(s.words))
	s.carve(make([]uint64, footprint(nw)), nw)
	s.n = 0
	s.OrWords(0, old)
}

// count records c elements added to word k, which is nonzero.
func (s *Set) count(k, c int) {
	b := k / blockWords
	s.cnt[b] += uint64(c)
	s.wmask[b] |= 1 << (k % blockWords)
	if len(s.scnt) != 0 {
		s.scnt[b/blockWords] += uint64(c)
		s.bmask[b/blockWords] |= 1 << (b % blockWords)
	}
	s.n += c
}

// block returns the words of block b.
func (s *Set) block(b int) []uint64 {
	return s.words[b*blockWords : min((b+1)*blockWords, len(s.words))]
}

// blocksIn returns the mask of super-block j's blocks that may be
// nonempty.
func (s *Set) blocksIn(j int) uint64 {
	if j < len(s.bmask) {
		return s.bmask[j]
	}
	if j == 0 && len(s.cnt) == 1 { // one block, no level three
		return 1
	}
	return 0
}

// marked calls fn with each word the masks name, in ascending order,
// until fn returns false.
func (s *Set) marked(fn func(k int) bool) {
	for j := 0; j*blockWords < len(s.cnt); j++ {
		for bm := s.blocksIn(j); bm != 0; bm &= bm - 1 {
			b := j*blockWords + bits.TrailingZeros64(bm)
			for wm := s.wmask[b]; wm != 0; wm &= wm - 1 {
				if !fn(b*blockWords + bits.TrailingZeros64(wm)) {
					return
				}
			}
		}
	}
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
	s.count(v>>6, 1)
	return true
}

// Delete removes v from the set. It reports whether v was present.
func (s *Set) Delete(v int) bool {
	if uint(v>>6) >= uint(len(s.words)) { // v < 0 too
		return false
	}
	w := &s.words[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	if *w&mask == 0 {
		return false
	}
	*w &^= mask
	s.cnt[v>>12]--
	if len(s.scnt) != 0 {
		s.scnt[v>>18]--
	}
	s.n--
	return true
}

// Clear removes all elements, keeping the storage. Only the words the
// masks name are touched, with their blocks, and every super-block.
func (s *Set) Clear() {
	if s.n == 0 {
		return
	}
	s.marked(func(k int) bool {
		s.words[k], s.cnt[k/blockWords], s.wmask[k/blockWords] = 0, 0, 0
		return true
	})
	clear(s.scnt)
	clear(s.bmask)
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
	for k := loW; k <= hiW; k++ {
		mask := ^uint64(0)
		if k == loW {
			mask &= ^uint64(0) << (uint(lo) & 63)
		}
		if k == hiW {
			mask &= ^uint64(0) >> (63 - uint(hi)&63)
		}
		added := bits.OnesCount64(mask &^ s.words[k])
		s.words[k] |= mask
		s.count(k, added)
	}
}

// AppendAbsent appends the ids of [lo..hi] that are not in the set to
// dst, ascending, one complemented word at a time. lo must be
// non-negative.
func (s *Set) AppendAbsent(dst []int, lo, hi int) []int {
	for k := lo >> 6; k <= hi>>6; k++ {
		w := ^uint64(0)
		if k < len(s.words) {
			w = ^s.words[k]
		}
		for ; w != 0; w &= w - 1 {
			if v := k<<6 + bits.TrailingZeros64(w); v >= lo && v <= hi {
				dst = append(dst, v)
			}
		}
	}
	return dst
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
			s.count(k, added)
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
	return s.SelectSkipping(nil, i)
}

// SelectSkipping returns the element of rank i (1-indexed) in s less the
// ids of skip, which must ascend strictly: the paper's rank(FREE, TRY, i)
// over core.Proc's sorted TRY. A super-block or block is skipped at its
// count less the listed ids it holds, and only the block holding the
// answer is scanned, each word less the listed ids in it. ok is false
// when fewer than i elements remain.
func (s *Set) SelectSkipping(skip []int, i int) (v int, ok bool) {
	if i < 1 {
		return 0, false
	}
	b := 0
	if len(s.scnt) != 0 {
		if b, i, skip = s.locate(skip, i); b < 0 {
			return 0, false
		}
	}
	base := b * blockWords
	for k, w := range s.block(b) {
		for ; len(skip) > 0 && skip[0]>>6 <= base+k; skip = skip[1:] {
			if skip[0]>>6 == base+k {
				w &^= 1 << (uint(skip[0]) & 63)
			}
		}
		c := bits.OnesCount64(w)
		if i > c {
			i -= c
			continue
		}
		return (base+k)<<6 + selectInWord(w, i), true
	}
	return 0, false
}

// locate returns the block of s holding the i-th element of s less skip,
// its rank there and the ids of skip from that block on, or b = -1 when
// fewer remain.
func (s *Set) locate(skip []int, i int) (b, r int, rest []int) {
	left := s.n
	for j, c := range s.scnt {
		if c == 0 {
			continue
		}
		if left -= int(c); left > 0 { // the last nonempty one goes untested
			h, after := s.held(skip, (j+1)*blockWords*blockWords<<6)
			if d := int(c) - h; i > d {
				i, skip = i-d, after
				continue
			}
		}
		for bm := s.bmask[j]; bm != 0; bm &= bm - 1 {
			b := j*blockWords + bits.TrailingZeros64(bm)
			h, after := s.held(skip, (b+1)*blockWords<<6)
			if d := int(s.cnt[b]) - h; i > d {
				i, skip = i-d, after
				continue
			}
			return b, i, skip
		}
	}
	return -1, i, skip
}

// held counts the ids of skip below lim that s holds, and returns the
// ids from lim on.
func (s *Set) held(skip []int, lim int) (n int, rest []int) {
	for ; len(skip) > 0 && skip[0] < lim; skip = skip[1:] {
		if s.Contains(skip[0]) {
			n++
		}
	}
	return n, skip
}

// Finger is a place in a set for SelectFrom: a word and the count of the
// set's ids below it. The zero Finger is valid for every set, and stays
// valid while the set changes only by Finger.Delete.
type Finger struct{ w, below int }

// Delete removes v from s, keeping f's count.
func (f *Finger) Delete(s *Set, v int) {
	if s.Delete(v) && v>>6 < f.w {
		f.below--
	}
}

// SelectFrom is SelectSkipping walked a word at a time from f, which it
// moves to the answer's word: an answer a few ranks from the last costs a
// few words. An answer more than reach words away falls back to
// SelectSkipping, so no select reads more than reach words beyond it.
func (s *Set) SelectFrom(f *Finger, skip []int, i int) (v int, ok bool) {
	h, rest := s.held(skip, f.w<<6)
	w, r, k := f.w, f.below, len(skip)-len(rest) // r ids below word w, h of them in skip[:k]
	for n := 0; i >= 1 && n < reach; n++ {
		if r-h >= i { // the answer lies below w
			w--
			r -= bits.OnesCount64(s.words[w])
			for ; k > 0 && skip[k-1]>>6 == w; k-- {
				if s.Contains(skip[k-1]) {
					h--
				}
			}
			continue
		}
		if w == len(s.words) {
			return 0, false
		}
		x, c := s.words[w], bits.OnesCount64(s.words[w])
		for ; k < len(skip) && skip[k]>>6 == w; k++ {
			x &^= 1 << (uint(skip[k]) & 63)
		}
		if d := bits.OnesCount64(x); i > r-h+d {
			w, r, h = w+1, r+c, h+c-d
			continue
		}
		f.w, f.below = w, r
		return w<<6 + selectInWord(x, i-r+h), true
	}
	// Below the answer lie its i−1 predecessors and the ids of skip s holds.
	if v, ok = s.SelectSkipping(skip, i); ok {
		h, _ := s.held(skip, v)
		f.w, f.below = v>>6, i-1+h-bits.OnesCount64(s.words[v>>6]&(1<<(uint(v)&63)-1))
	}
	return v, ok
}

// reach is how many words SelectFrom walks before it falls back: past the
// few ranks a compNext's answer moves, short of what an answer that jumps
// a gap of deleted ids would waste before the fallback.
const reach = 8

// SelectExcluding returns the element of rank i (1-indexed) in s \ excl.
// It hands excl's ids to SelectSkipping 64 at a time from a buffer on the
// stack, so it allocates nothing: while the answer lies past a batch, the
// next batch's rank is i plus the ids of the batches before it that s
// holds. ok is false when s \ excl has fewer than i elements.
func (s *Set) SelectExcluding(excl *Set, i int) (v int, ok bool) {
	var buf [64]int
	ids, found := buf[:0], false
	excl.Ascend(func(x int) bool {
		if len(ids) == len(buf) {
			if v, ok = s.SelectSkipping(ids, i); !ok || v < x {
				found = true
				return false
			}
			h, _ := s.held(ids, x)
			i, ids = i+h, ids[:0]
		}
		ids = append(ids, x)
		return true
	})
	if found {
		return v, ok
	}
	return s.SelectSkipping(ids, i)
}

// selectInWord returns the bit position of the i-th (1-indexed) set bit
// of w; i must be ≤ popcount(w). Broadword, twice over: the running
// popcounts of w's bytes, summed in one multiply, locate the byte that
// holds the bit, and the running counts of that byte's bits, spread one
// to a byte, the bit in it.
func selectInWord(w uint64, i int) int {
	s := w - w>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f * ones
	r := uint64(i - 1)
	at := atMost(s, r) * 8
	r -= s << 8 >> at & 0xff
	s = (w>>at&0xff*ones&0x8040201008040201 + 0x7f7f7f7f7f7f7f7f) >> 7 & ones * ones
	return at + atMost(s, r)
}

// ones has a one in every byte.
const ones = 0x0101010101010101

// atMost returns how many bytes of s hold at most r, for bytes and r
// below 128: a byte keeps its high bit in 0x80+r−byte when byte ≤ r.
func atMost(s, r uint64) int {
	return bits.OnesCount64((r*ones | 0x8080808080808080 - s) & 0x8080808080808080)
}

// Ascend calls fn for each element in ascending order until fn returns
// false. It reads only the words the masks name.
func (s *Set) Ascend(fn func(v int) bool) {
	s.marked(func(k int) bool {
		for w := s.words[k]; w != 0; w &= w - 1 {
			if !fn(k<<6 + bits.TrailingZeros64(w)) {
				return false
			}
		}
		return true
	})
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
	c.carve(append([]uint64(nil), s.words[:cap(s.words)]...), len(s.words))
	return c
}
