package dispatch

import (
	"context"
	"math"
	"sort"
	"sync"
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

// blockLen is the entries in one queue block: 512 cache lines, 32 KiB.
// Smaller blocks cost more than they save: at 64 entries the pool's
// refills after each collection took durable_net's allocs_per_job to
// 0.0262 (0.0242 here, 0.0239 with one growing array per ring).
const blockLen = 512

type block [blockLen]entry

// queueBlocks is the one pool every ring takes its blocks from and gives
// them back to, zeroed, the moment no queued entry is left in one. Like
// futureSlabs it is per-P and emptied by the collector, so a drained
// shard holds no block and a backlog's memory is gone two collections
// after the backlog is.
var queueBlocks = sync.Pool{New: func() any { return new(block) }}

// ring is a double-ended queue of entries over pooled blocks. Residue
// carried over from a round is pushed back at the FRONT so old jobs keep
// their place in line ahead of newly submitted ones; work-stealing takes
// from the BACK, so a thief claims the youngest jobs and the victim keeps
// its residue. The n entries fill slots head … head+n−1 of the blocks
// laid end to end, so a ring holds ⌈(head+n)/blockLen⌉ blocks — none when
// empty — and its memory follows its occupancy with no shrink rule: a
// slot is zeroed as its entry leaves, a block goes back to the pool as
// its last entry does.
type ring struct {
	bl   []*block
	head int // slot of the front entry in bl[0]
	n    int
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

// at is the slot of the i-th queued entry.
func (r *ring) at(i int) *entry {
	p := uint(r.head + i)
	return &r.bl[p/blockLen][p%blockLen]
}

// start gives an empty ring its first block, entered an eighth of the
// way in: a round's residue pushed to the front of a ring that submitters
// refilled from the back still fits the one block.
func (r *ring) start() {
	r.bl = append(r.bl, queueBlocks.Get().(*block))
	r.head = blockLen / 8
}

// trim gives back every block past the last one holding an entry — all
// of them once the ring is empty. Their slots are already zero. The
// block list keeps its capacity, a word per block of the deepest
// backlog: dropping it re-grew it on every refill (TestRunnerBatchAllocs
// read 14 allocations per 32 768-job cycle).
func (r *ring) trim() {
	if r.n == 0 {
		r.head, r.minDL = 0, 0
	}
	keep := (r.head + r.n + blockLen - 1) / blockLen
	for i := keep; i < len(r.bl); i++ {
		queueBlocks.Put(r.bl[i])
		r.bl[i] = nil
	}
	r.bl = r.bl[:keep]
}

func (r *ring) pushBack(e entry) {
	switch {
	case r.n == 0:
		r.start()
	case r.head+r.n == len(r.bl)*blockLen:
		r.bl = append(r.bl, queueBlocks.Get().(*block))
	}
	*r.at(r.n) = e
	r.n++
	r.noteDeadline(e.dl)
}

func (r *ring) pushFront(e entry) {
	switch {
	case r.n == 0:
		r.start()
	case r.head == 0:
		r.bl = append(r.bl, nil)
		copy(r.bl[1:], r.bl)
		r.bl[0], r.head = queueBlocks.Get().(*block), blockLen
	}
	r.head--
	r.bl[0][r.head] = e
	r.n++
	r.noteDeadline(e.dl)
}

func (r *ring) popFront() entry {
	b := r.bl[0]
	e := b[r.head]
	b[r.head] = entry{}
	r.head++
	if r.n--; r.n == 0 {
		r.trim()
	} else if r.head == blockLen {
		queueBlocks.Put(b)
		k := copy(r.bl, r.bl[1:])
		r.bl[k], r.bl, r.head = nil, r.bl[:k], 0
	}
	return e
}

// extractDue removes every entry whose deadline is non-zero and ≤ cutoff,
// appending them to dst (in queue order) and compacting the survivors in
// place. It recomputes minDL exactly, so a sweep that extracts nothing
// still repairs a stale bound.
func (r *ring) extractDue(cutoff int64, dst []entry) []entry {
	kept, min := 0, int64(0)
	for i := 0; i < r.n; i++ {
		e := r.at(i)
		if e.dl != 0 && e.dl <= cutoff {
			dst = append(dst, *e)
			continue
		}
		if e.dl != 0 && (min == 0 || e.dl < min) {
			min = e.dl
		}
		*r.at(kept) = *e
		kept++
	}
	for i := kept; i < r.n; i++ {
		*r.at(i) = entry{}
	}
	r.n, r.minDL = kept, min
	r.trim()
	return dst
}

// stealBack moves the last k entries — the youngest jobs — onto the back
// of dst, preserving their relative order. The caller must ensure
// k ≤ r.len().
func (r *ring) stealBack(k int, dst *ring) {
	for i := r.n - k; i < r.n; i++ {
		e := r.at(i)
		dst.pushBack(*e)
		*e = entry{}
	}
	r.n -= k
	r.trim()
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

// capCells reports the cells of the blocks the rings hold (for the
// memory-bound assertions).
func (q *pqueue) capCells() int {
	c := 0
	for i := range q.rings {
		c += len(q.rings[i].bl) * blockLen
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

// stealBack moves the last k entries of the lowest-priority non-empty
// ring onto the back of dst, preserving their relative order. The caller
// must ensure k ≤ lowest(). Stolen entries keep their priority and
// deadline — they are re-queued into the same class on the thief.
func (q *pqueue) stealBack(k int, dst *ring) {
	for i := numRings - 1; i >= 0; i-- {
		if q.rings[i].n > 0 {
			q.rings[i].stealBack(k, dst)
			q.size -= k
			return
		}
	}
}
