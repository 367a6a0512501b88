// Package oset provides an order-statistic set of integers backed by a
// red-black tree: the structure the paper assumes for KKβ's FREE, DONE and
// TRY sets (Kentros & Kiayias, §3). No program in this repository uses it
// any more — the sets of core.Proc are internal/denseset bitmaps at every
// universe — and it is kept as the reference implementation that
// denseset's TestAgainstOset compares against, operation by operation.
//
// In addition to the usual Insert/Delete/Contains operations in O(log n),
// the set supports rank queries: Select(i) returns the i-th smallest
// element, Rank(v) returns the number of elements ≤ v, and SelectExcluding
// implements the paper's rank(SET1, SET2, i) — the element of SET1\SET2
// with rank i — in O(|SET2|·log n), matching the cost model used in the
// paper's work-complexity analysis (Theorem 5.6).
package oset

const (
	red   = true
	black = false
)

type node struct {
	key                 int
	size                int // number of keys in the subtree rooted here
	color               bool
	left, right, parent *node
}

// Set is an ordered set of ints with order-statistic queries.
// The zero value is not usable; call New.
//
// Removed nodes are kept on an internal free list and reused by later
// insertions, so a set that is repeatedly filled and cleared to a similar
// size reaches a steady state where no operation allocates.
type Set struct {
	root    *node
	nil_    *node // sentinel leaf (black)
	free    *node // recycled nodes, linked through right
	scratch []int // SelectExcluding's reusable exclusion snapshot
}

// New returns an empty set. If keys are given they are inserted.
func New(keys ...int) *Set {
	sentinel := &node{color: black}
	s := &Set{root: sentinel, nil_: sentinel}
	for _, k := range keys {
		s.Insert(k)
	}
	return s
}

// NewRange returns the set {lo, lo+1, ..., hi}. It builds a balanced tree
// in O(hi-lo+1) without per-key rebalancing, which matters when
// initializing FREE = J for large n.
func NewRange(lo, hi int) *Set {
	s := New()
	s.ResetRange(lo, hi)
	return s
}

// ResetRange clears the set and refills it with {lo, lo+1, ..., hi},
// reusing the recycled nodes. After one warm-up fill at a given size, the
// call allocates nothing — the property Proc.Reset depends on to restart a
// round without touching the heap. lo > hi leaves the set empty.
func (s *Set) ResetRange(lo, hi int) {
	s.recycle(s.root)
	s.root = s.nil_
	if lo > hi {
		return
	}
	count := hi - lo + 1
	// A mid-split tree of size c has every sentinel at depth H-1 or H,
	// where H = ceil(log2(c+1)). Coloring exactly the nodes at the deepest
	// level (depth H-1) red gives a uniform black-height of H-1 along
	// every path and no red-red violations (the deepest level's parents
	// are all black), so the result is a valid red-black tree.
	maxDepth := ceilLog2(count+1) - 1
	s.root = s.buildBalanced(lo, hi, s.nil_, 0, maxDepth)
	s.root.color = black // a single-node tree would otherwise have a red root
}

func (s *Set) buildBalanced(lo, hi int, parent *node, depth, redDepth int) *node {
	if lo > hi {
		return s.nil_
	}
	mid := lo + (hi-lo)/2
	n := s.newNode(mid)
	n.size = hi - lo + 1
	n.color = black
	n.parent = parent
	if depth == redDepth {
		n.color = red
	}
	n.left = s.buildBalanced(lo, mid-1, n, depth+1, redDepth)
	n.right = s.buildBalanced(mid+1, hi, n, depth+1, redDepth)
	return n
}

// newNode pops a recycled node (or allocates one) and initializes it as a
// red leaf with the given key.
func (s *Set) newNode(key int) *node {
	n := s.free
	if n == nil {
		n = &node{}
	} else {
		s.free = n.right
	}
	n.key = key
	n.size = 1
	n.color = red
	n.left = s.nil_
	n.right = s.nil_
	n.parent = nil
	return n
}

// recycle pushes the subtree rooted at x onto the free list.
func (s *Set) recycle(x *node) {
	if x == s.nil_ {
		return
	}
	s.recycle(x.left)
	s.recycle(x.right)
	s.recycleOne(x)
}

// recycleOne pushes a single detached node onto the free list.
func (s *Set) recycleOne(x *node) {
	x.left, x.parent = nil, nil
	x.right = s.free
	s.free = x
}

// ceilLog2 returns ceil(log2(v)) for v ≥ 1.
func ceilLog2(v int) int {
	r, p := 0, 1
	for p < v {
		p <<= 1
		r++
	}
	return r
}

// Len returns the number of elements.
func (s *Set) Len() int {
	return s.root.size
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	return s.find(v) != s.nil_
}

func (s *Set) find(v int) *node {
	x := s.root
	for x != s.nil_ {
		switch {
		case v < x.key:
			x = x.left
		case v > x.key:
			x = x.right
		default:
			return x
		}
	}
	return s.nil_
}

// Min returns the smallest element; ok is false when the set is empty.
func (s *Set) Min() (v int, ok bool) {
	if s.root == s.nil_ {
		return 0, false
	}
	x := s.root
	for x.left != s.nil_ {
		x = x.left
	}
	return x.key, true
}

// Max returns the largest element; ok is false when the set is empty.
func (s *Set) Max() (v int, ok bool) {
	if s.root == s.nil_ {
		return 0, false
	}
	x := s.root
	for x.right != s.nil_ {
		x = x.right
	}
	return x.key, true
}

// Insert adds v to the set. It reports whether v was absent.
func (s *Set) Insert(v int) bool {
	y := s.nil_
	x := s.root
	for x != s.nil_ {
		y = x
		switch {
		case v < x.key:
			x = x.left
		case v > x.key:
			x = x.right
		default:
			return false // already present
		}
	}
	z := s.newNode(v)
	z.parent = y
	switch {
	case y == s.nil_:
		s.root = z
	case v < y.key:
		y.left = z
	default:
		y.right = z
	}
	for p := y; p != s.nil_; p = p.parent {
		p.size++
	}
	s.insertFixup(z)
	return true
}

// Delete removes v from the set. It reports whether v was present.
func (s *Set) Delete(v int) bool {
	z := s.find(v)
	if z == s.nil_ {
		return false
	}
	s.deleteNode(z)
	return true
}

// Select returns the element with rank i (1-indexed: Select(1) is the
// minimum). ok is false when i is out of range.
func (s *Set) Select(i int) (v int, ok bool) {
	if i < 1 || i > s.root.size {
		return 0, false
	}
	x := s.root
	for {
		r := x.left.size + 1
		switch {
		case i == r:
			return x.key, true
		case i < r:
			x = x.left
		default:
			i -= r
			x = x.right
		}
	}
}

// Rank returns the number of elements ≤ v.
func (s *Set) Rank(v int) int {
	r := 0
	x := s.root
	for x != s.nil_ {
		if v < x.key {
			x = x.left
		} else {
			r += x.left.size + 1
			x = x.right
		}
	}
	return r
}

// SelectExcluding returns the element of rank i (1-indexed) in the set
// difference s \ excl. This is the paper's rank(SET1, SET2, i) operation.
// ok is false when s \ excl has fewer than i elements.
//
// Cost: O((|excl|+k)·log n) where k is the number of fixpoint iterations
// (k ≤ |excl|+1), matching the paper's O(|SET2|·log n) charge for the
// sizes arising in KKβ (|TRY| < m).
func (s *Set) SelectExcluding(excl *Set, i int) (v int, ok bool) {
	if i < 1 {
		return 0, false
	}
	// Gather the exclusions that are actually present in s, in order. The
	// snapshot lives in a scratch buffer reused across calls, so a set
	// whose exclusion sizes have stabilized performs this without
	// allocating.
	present := s.scratch[:0]
	excl.Ascend(func(e int) bool {
		if s.Contains(e) {
			present = append(present, e)
		}
		return true
	})
	s.scratch = present[:0]
	if s.Len()-len(present) < i {
		return 0, false
	}
	// Fixpoint: the i-th element of s\excl is the j-th element of s where
	// j = i + |{e in present : e ≤ candidate}|. The count is monotone in
	// the candidate, so iterating converges in ≤ len(present)+1 rounds.
	j := i
	for {
		x, xok := s.Select(j)
		if !xok {
			return 0, false
		}
		c := countLeq(present, x)
		if j == i+c {
			return x, true
		}
		j = i + c
	}
}

// countLeq returns the number of elements of the sorted slice a that are ≤ v.
func countLeq(a []int, v int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Ascend calls fn for each element in ascending order until fn returns false.
func (s *Set) Ascend(fn func(v int) bool) {
	s.ascend(s.root, fn)
}

func (s *Set) ascend(x *node, fn func(v int) bool) bool {
	if x == s.nil_ {
		return true
	}
	if !s.ascend(x.left, fn) {
		return false
	}
	if !fn(x.key) {
		return false
	}
	return s.ascend(x.right, fn)
}

// Slice returns all elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.Ascend(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := New()
	c.root = c.cloneNode(s, s.root, c.nil_)
	return c
}

func (c *Set) cloneNode(src *Set, x *node, parent *node) *node {
	if x == src.nil_ {
		return c.nil_
	}
	n := &node{key: x.key, size: x.size, color: x.color, parent: parent}
	n.left = c.cloneNode(src, x.left, n)
	n.right = c.cloneNode(src, x.right, n)
	return n
}

// Clear removes all elements. The nodes are recycled for later insertions.
func (s *Set) Clear() {
	s.recycle(s.root)
	s.root = s.nil_
}

// --- red-black machinery (CLRS-style with sentinel) ---

func (s *Set) leftRotate(x *node) {
	y := x.right
	x.right = y.left
	if y.left != s.nil_ {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == s.nil_:
		s.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	y.size = x.size
	x.size = x.left.size + x.right.size + 1
}

func (s *Set) rightRotate(x *node) {
	y := x.left
	x.left = y.right
	if y.right != s.nil_ {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == s.nil_:
		s.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	y.size = x.size
	x.size = x.left.size + x.right.size + 1
}

func (s *Set) insertFixup(z *node) {
	for z.parent.color == red {
		if z.parent == z.parent.parent.left {
			y := z.parent.parent.right
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					s.leftRotate(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				s.rightRotate(z.parent.parent)
			}
		} else {
			y := z.parent.parent.left
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					s.rightRotate(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				s.leftRotate(z.parent.parent)
			}
		}
	}
	s.root.color = black
}

func (s *Set) transplant(u, v *node) {
	switch {
	case u.parent == s.nil_:
		s.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	v.parent = u.parent
}

func (s *Set) minimum(x *node) *node {
	for x.left != s.nil_ {
		x = x.left
	}
	return x
}

func (s *Set) deleteNode(z *node) {
	y := z
	yOrigColor := y.color
	var x *node
	switch {
	case z.left == s.nil_:
		x = z.right
		s.transplant(z, z.right)
		s.decrementSizes(z.parent)
	case z.right == s.nil_:
		x = z.left
		s.transplant(z, z.left)
		s.decrementSizes(z.parent)
	default:
		y = s.minimum(z.right)
		yOrigColor = y.color
		x = y.right
		s.decrementSizes(y.parent)
		if y.parent == z {
			x.parent = y
		} else {
			s.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		s.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
		y.size = y.left.size + y.right.size + 1
	}
	if yOrigColor == black {
		s.deleteFixup(x)
	}
	// z is detached from the tree in every case above (in the two-child
	// case y takes z's place, structurally removing z).
	s.recycleOne(z)
}

// decrementSizes walks from p to the root decrementing subtree sizes to
// account for one removed node below p (inclusive).
func (s *Set) decrementSizes(p *node) {
	for ; p != s.nil_; p = p.parent {
		p.size--
	}
}

func (s *Set) deleteFixup(x *node) {
	for x != s.root && x.color == black {
		if x == x.parent.left {
			w := x.parent.right
			if w.color == red {
				w.color = black
				x.parent.color = red
				s.leftRotate(x.parent)
				w = x.parent.right
			}
			if w.left.color == black && w.right.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.right.color == black {
					w.left.color = black
					w.color = red
					s.rightRotate(w)
					w = x.parent.right
				}
				w.color = x.parent.color
				x.parent.color = black
				w.right.color = black
				s.leftRotate(x.parent)
				x = s.root
			}
		} else {
			w := x.parent.left
			if w.color == red {
				w.color = black
				x.parent.color = red
				s.rightRotate(x.parent)
				w = x.parent.left
			}
			if w.right.color == black && w.left.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.left.color == black {
					w.right.color = black
					w.color = red
					s.leftRotate(w)
					w = x.parent.left
				}
				w.color = x.parent.color
				x.parent.color = black
				w.left.color = black
				s.rightRotate(x.parent)
				x = s.root
			}
		}
	}
	x.color = black
}
