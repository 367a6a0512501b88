package dispatch

import (
	"context"
	"math"
	"sort"
)

// entry is one queued job and everything that travels with it: its
// dispatcher-wide id, the Runner that is its payload AND its completion
// (a caller-owned object from DoRunners, or what task.go binds a Task
// to; nil marks round padding) and its scheduling descriptor. Entries
// are copied through rings, batches and steals, so whichever shard ends
// up holding the job — residue, a steal, an expiry — holds all of it,
// and the struct is exactly eight words: one cache line, and ring slots
// never straddle two (TestEntryIsOneCacheLine).
type entry struct {
	id  uint64
	run Runner
	// dl is the deadline as Unix nanoseconds (0 = none).
	dl int64
	// t0 is the submit time (Unix nanoseconds) of jobs sampled into the
	// submit→completion latency histogram, 0 for unsampled ones. It rides
	// the entry through requeues and steals, so the recorded latency is
	// wall time from submission to final resolution.
	t0 int64
	// ctx is Do's ctx when it can be cancelled, nil for every other entry:
	// round assembly polls it so a job whose ctx died in the queue resolves
	// without starting (see shard.takeBatch).
	ctx context.Context
	pri Priority
}

// fire delivers the job's one JobResult. Never called under a shard lock
// — Resolved may re-enter the dispatcher.
func (e *entry) fire(r JobResult) { e.run.Resolved(r) }

// resolved pairs an entry with its result: collected under the shard
// lock at round assembly (expiry, cancellation) and fired after it.
type resolved struct {
	e entry
	r JobResult
}

// cancelErr reports the entry's submission-ctx error, nil for
// non-cancellable entries.
func (e *entry) cancelErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// minRingCap is the smallest backing array the ring keeps once it has
// grown at all; below this, shrinking saves too little to be worth the
// copy churn.
const minRingCap = 64

// ring is a growable, shrinkable double-ended queue of entries. Residue
// carried over from a round is pushed back at the FRONT so old jobs keep
// their place in line ahead of newly submitted ones; work-stealing takes
// from the BACK, so a thief claims the youngest jobs and the victim keeps
// its residue. Capacity is retained across rounds, so a steady-state
// workload enqueues and dequeues without allocating — but a one-time
// spike no longer pins memory forever: after sustained low occupancy
// (see low/maybeShrink) the backing array is halved.
type ring struct {
	buf  []entry
	head int
	n    int
	// low counts consecutive dequeues observed at ≤ 1/8 occupancy; it is
	// reset whenever the queue refills past 1/4. A halving is triggered
	// only once low reaches the current capacity, so the O(n) copy is
	// amortized O(1) per operation and a brief dip never thrashes.
	low int
	// minDL is a conservative lower bound on the earliest deadline among
	// the ring's entries (0 = none known). It is tightened on push and
	// recomputed exactly by extractDue; pops leave it stale-low, which at
	// worst triggers one extra (empty) extraction sweep that recomputes
	// it — never a missed deadline.
	minDL int64
}

// noteDeadline folds a pushed entry's deadline into the bound.
func (r *ring) noteDeadline(dl int64) {
	if dl != 0 && (r.minDL == 0 || dl < r.minDL) {
		r.minDL = dl
	}
}

func (r *ring) len() int { return r.n }

func (r *ring) grow() {
	c := len(r.buf) * 2
	if c < 16 {
		c = 16
	}
	nb := make([]entry, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head, r.low = nb, 0, 0
}

// maybeShrink halves the backing array after sustained low occupancy.
// Hysteresis: shrink requires ≤ 1/8 occupancy sustained for a full
// capacity's worth of dequeues, and the result is ≥ 1/4 free, so a
// workload oscillating around a steady peak neither grows nor shrinks.
func (r *ring) maybeShrink() {
	c := len(r.buf)
	if c <= minRingCap || r.n*8 > c {
		r.low = 0
		return
	}
	if r.low++; r.low < c {
		return
	}
	nc := c / 2
	nb := make([]entry, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%c]
	}
	r.buf, r.head, r.low = nb, 0, 0
}

func (r *ring) pushBack(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
	r.noteDeadline(e.dl)
	if r.n*4 >= len(r.buf) {
		r.low = 0
	}
}

func (r *ring) pushFront(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = e
	r.n++
	r.noteDeadline(e.dl)
	if r.n*4 >= len(r.buf) {
		r.low = 0
	}
}

func (r *ring) popFront() entry {
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	if r.n == 0 {
		r.minDL = 0
	}
	r.maybeShrink()
	return e
}

// extractDue removes every entry whose deadline is non-zero and ≤ cutoff,
// appending them to dst (in queue order) and compacting the survivors in
// place. It recomputes minDL exactly, so a sweep that extracts nothing
// still repairs a stale bound.
func (r *ring) extractDue(cutoff int64, dst []entry) []entry {
	c := len(r.buf)
	kept, min := 0, int64(0)
	for i := 0; i < r.n; i++ {
		idx := (r.head + i) % c
		e := r.buf[idx]
		if e.dl != 0 && e.dl <= cutoff {
			dst = append(dst, e)
			continue
		}
		if e.dl != 0 && (min == 0 || e.dl < min) {
			min = e.dl
		}
		r.buf[(r.head+kept)%c] = e
		kept++
	}
	for i := kept; i < r.n; i++ {
		r.buf[(r.head+i)%c] = entry{}
	}
	r.n, r.minDL = kept, min
	return dst
}

// stealBack removes the last len(dst) entries — the youngest jobs — into
// dst, preserving their relative order. The caller must ensure
// len(dst) ≤ r.len().
func (r *ring) stealBack(dst []entry) {
	k := len(dst)
	c := len(r.buf)
	for i := 0; i < k; i++ {
		idx := (r.head + r.n - k + i) % c
		dst[i] = r.buf[idx]
		r.buf[idx] = entry{}
	}
	r.n -= k
	if r.n == 0 {
		r.minDL = 0
	}
	r.maybeShrink()
}

// numRings is the number of priority classes (High, Normal, Low).
const numRings = 3

// pqueue is a shard's pending-job queue: one ring per priority class,
// drained strictly in priority order (High before Normal before Low,
// FIFO within a class) with deadline-ordered promotion across classes
// (extractDue). Residue re-enters at the FRONT of its own class's ring,
// so an old job keeps its place in line among its peers but never jumps
// a class; work-stealing takes from the BACK of the LOWEST non-empty
// ring, so a thief relieves the victim of the work it would get to last.
type pqueue struct {
	rings [numRings]ring
	size  int
}

// ringIndex maps a priority to its drain position: High first.
func ringIndex(p Priority) int {
	switch p {
	case High:
		return 0
	case Low:
		return 2
	default:
		return 1
	}
}

func (q *pqueue) len() int { return q.size }

// capCells reports the total backing-array cells across the rings (for
// the backpressure memory-bound assertions).
func (q *pqueue) capCells() int {
	c := 0
	for i := range q.rings {
		c += len(q.rings[i].buf)
	}
	return c
}

func (q *pqueue) pushBack(e entry) {
	q.rings[ringIndex(e.pri)].pushBack(e)
	q.size++
}

func (q *pqueue) pushFront(e entry) {
	q.rings[ringIndex(e.pri)].pushFront(e)
	q.size++
}

// popFront removes the head of the highest-priority non-empty ring. The
// caller must ensure len() > 0.
func (q *pqueue) popFront() entry {
	for i := range q.rings {
		if q.rings[i].n > 0 {
			q.size--
			return q.rings[i].popFront()
		}
	}
	panic("dispatch: popFront on empty pqueue")
}

// minDeadline is the earliest (conservative) deadline bound across the
// rings, 0 when no queued entry carries one.
func (q *pqueue) minDeadline() int64 {
	var min int64
	for i := range q.rings {
		if dl := q.rings[i].minDL; dl != 0 && (min == 0 || dl < min) {
			min = dl
		}
	}
	return min
}

// extractDue removes every queued entry with a deadline at or before
// cutoff — regardless of priority class — appending them to dst in
// DEADLINE order (ties keep priority-then-FIFO order). Rings whose
// deadline bound is beyond the cutoff are skipped without a scan.
func (q *pqueue) extractDue(cutoff int64, dst []entry) []entry {
	before := len(dst)
	for i := range q.rings {
		r := &q.rings[i]
		if r.minDL == 0 || r.minDL > cutoff {
			continue
		}
		dst = r.extractDue(cutoff, dst)
	}
	q.size -= len(dst) - before
	due := dst[before:]
	sort.SliceStable(due, func(a, b int) bool { return due[a].dl < due[b].dl })
	return dst
}

// popRing removes the head entry of ring ri. The caller must ensure the
// ring is non-empty.
func (q *pqueue) popRing(ri int) entry {
	q.size--
	return q.rings[ri].popFront()
}

// extractDeadlined removes every deadlined entry of ring ri, appending
// them to dst in DEADLINE order (FIFO ties) — the EDF pre-pass for a
// priority class that cannot be drained whole this round (see
// shard.takeClass). A stale minDL bound costs at most the one sweep,
// which recomputes it exactly.
func (q *pqueue) extractDeadlined(ri int, dst []entry) []entry {
	before := len(dst)
	dst = q.rings[ri].extractDue(math.MaxInt64, dst)
	q.size -= len(dst) - before
	due := dst[before:]
	sort.SliceStable(due, func(a, b int) bool { return due[a].dl < due[b].dl })
	return dst
}

// lowest returns the occupancy of the lowest-priority non-empty ring.
func (q *pqueue) lowest() int {
	for i := numRings - 1; i >= 0; i-- {
		if n := q.rings[i].n; n > 0 {
			return n
		}
	}
	return 0
}

// stealBack removes the last len(dst) entries of the lowest-priority
// non-empty ring into dst, preserving their relative order. The caller
// must ensure len(dst) ≤ lowest(). Stolen entries keep their priority
// and deadline — they are re-queued into the same class on the thief.
func (q *pqueue) stealBack(dst []entry) {
	for i := numRings - 1; i >= 0; i-- {
		if q.rings[i].n > 0 {
			q.rings[i].stealBack(dst)
			q.size -= len(dst)
			return
		}
	}
}
