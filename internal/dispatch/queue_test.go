package dispatch

import (
	"context"
	"math/rand"
	"testing"
)

// wantBlocks is what a ring may hold: ⌈(head+n)/blockLen⌉ blocks, none
// when it is empty.
func wantBlocks(r *ring) int { return (r.head + r.n + blockLen - 1) / blockLen }

// TestRingGrowWraparound drives the deque through interleaved
// front/back pushes and pops so both ends cross block boundaries: the
// back into appended blocks, the front into prepended ones.
func TestRingGrowWraparound(t *testing.T) {
	var r ring
	const n = 2*blockLen + 40
	for i := 1; i <= n; i++ {
		r.pushBack(entry{id: uint64(i)})
	}
	r.pushFront(entry{id: 0})
	for want := uint64(0); want <= n; want++ {
		if got := r.popFront().id; got != want {
			t.Fatalf("popFront = %d, want %d", got, want)
		}
	}
	if r.len() != 0 || len(r.bl) != 0 {
		t.Fatalf("len = %d with %d blocks after drain", r.len(), len(r.bl))
	}
	// Each iteration nets one entry at each end, so the front walks back
	// across blockLen/8 and then two more block boundaries.
	const m = 2 * blockLen
	for i := 0; i < m; i++ {
		r.pushBack(entry{id: uint64(i)})
		r.pushFront(entry{id: uint64(100_000 + i)})
		r.pushFront(entry{id: uint64(200_000 + i)})
		if got := r.popFront().id; got != uint64(200_000+i) {
			t.Fatalf("iteration %d: popFront = %d", i, got)
		}
		if len(r.bl) != wantBlocks(&r) {
			t.Fatalf("iteration %d: %d blocks, want %d", i, len(r.bl), wantBlocks(&r))
		}
	}
	for i := m - 1; i >= 0; i-- {
		if got := r.popFront().id; got != uint64(100_000+i) {
			t.Fatalf("front pop = %d, want %d", got, 100_000+i)
		}
	}
	for want := uint64(0); want < m; want++ {
		if got := r.popFront().id; got != want {
			t.Fatalf("popFront = %d, want %d", got, want)
		}
	}
}

// TestRingShrink: a one-time spike does not pin memory — the ring gives
// a block back as its last entry leaves, holds ⌈(head+n)/blockLen⌉ at
// every step of the drain and none once drained, and FIFO order holds
// throughout.
func TestRingShrink(t *testing.T) {
	var r ring
	const spike = 4096
	for i := 0; i < spike; i++ {
		r.pushBack(entry{id: uint64(i)})
	}
	if len(r.bl) != wantBlocks(&r) || len(r.bl) < spike/blockLen {
		t.Fatalf("%d blocks for %d entries from slot %d", len(r.bl), spike, r.head)
	}
	for i := 0; i < spike; i++ {
		if got := r.popFront().id; got != uint64(i) {
			t.Fatalf("pop %d = %d", i, got)
		}
		if len(r.bl) != wantBlocks(&r) {
			t.Fatalf("after %d pops: %d blocks, want %d", i+1, len(r.bl), wantBlocks(&r))
		}
	}
	if len(r.bl) != 0 {
		t.Fatalf("a drained ring holds %d blocks", len(r.bl))
	}
}

// TestRingShrinkHysteresis: a workload oscillating around a steady peak
// costs nothing once warm — the drained ring's block goes to the pool and
// the next fill takes it back.
func TestRingShrinkHysteresis(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	var r ring
	id := uint64(0)
	cycle := func() {
		for i := 0; i < 100; i++ {
			r.pushBack(entry{id: id})
			id++
		}
		for r.len() > 0 {
			r.popFront()
		}
	}
	// AllocsPerRun runs one cycle unmeasured (the first, which may make
	// the block), then 200.
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a fill/drain cycle at a peak of 100 allocates %.2f times", avg)
	}
	if len(r.bl) != 0 {
		t.Fatalf("a drained ring holds %d blocks", len(r.bl))
	}
}

// TestRingStealBack: stealing takes the youngest entries across a block
// boundary, preserves their relative order, leaves the victim's front
// (the residue end) untouched and gives the victim's emptied block back.
func TestRingStealBack(t *testing.T) {
	var r ring
	r.pushBack(entry{id: 999})
	for r.head+r.n < blockLen-16 {
		r.pushBack(entry{id: 999})
	}
	for i := 1; i <= 20; i++ {
		r.pushBack(entry{id: uint64(i)}) // ids 13..20 straddle the boundary
	}
	for r.at(0).id == 999 {
		r.popFront()
	}
	var dst ring
	r.stealBack(8, &dst)
	if dst.len() != 8 {
		t.Fatalf("thief got %d, want 8", dst.len())
	}
	for i := 0; i < 8; i++ {
		if got, want := dst.popFront().id, uint64(13+i); got != want {
			t.Fatalf("stolen[%d] = %d, want %d", i, got, want)
		}
	}
	if r.len() != 12 || len(r.bl) != 1 || len(dst.bl) != 0 {
		t.Fatalf("victim keeps %d entries in %d blocks, drained thief %d blocks; want 12 in 1, 0",
			r.len(), len(r.bl), len(dst.bl))
	}
	for want := uint64(1); want <= 12; want++ {
		if got := r.popFront().id; got != want {
			t.Fatalf("victim pop = %d, want %d", got, want)
		}
	}
}

// TestRingMatchesSliceModel runs seeded random pushBack, pushFront,
// popFront, extractDue and steals against a plain slice, around sizes on
// both sides of a block boundary, and checks after every operation the
// order, the length, the deadline bound (≤ the true minimum, and set
// whenever an entry has a deadline), ⌈(head+n)/blockLen⌉ blocks held, and
// — every eighth operation — that every slot outside the queued range is
// zero.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, size := range []int{0, 1, 511, 512, 513, 1024, 3000} {
		rng := rand.New(rand.NewSource(int64(size) + 29))
		var r, thief ring
		var model, thiefModel []entry
		id := uint64(0)
		mk := func() entry {
			id++
			e := entry{id: id}
			if rng.Intn(3) == 0 {
				e.dl = 1 + rng.Int63n(1000)
			}
			return e
		}
		ops := 0
		check := func(op string, r *ring, model []entry) {
			t.Helper()
			ops++
			if r.len() != len(model) {
				t.Fatalf("size %d, %s: len %d, model %d", size, op, r.len(), len(model))
			}
			var min int64
			for i, e := range model {
				if got := r.at(i).id; got != e.id {
					t.Fatalf("size %d, %s: entry %d is id %d, model %d", size, op, i, got, e.id)
				}
				if e.dl != 0 && (min == 0 || e.dl < min) {
					min = e.dl
				}
			}
			if min != 0 && (r.minDL == 0 || r.minDL > min) {
				t.Fatalf("size %d, %s: minDL %d, true minimum %d", size, op, r.minDL, min)
			}
			if len(r.bl) != wantBlocks(r) || (r.n > 0 && r.head >= blockLen) {
				t.Fatalf("size %d, %s: %d blocks for %d entries from slot %d", size, op, len(r.bl), r.n, r.head)
			}
			if ops%8 != 0 {
				return
			}
			for b, blk := range r.bl {
				for s := range blk {
					if p := b*blockLen + s; (p < r.head || p >= r.head+r.n) && blk[s] != (entry{}) {
						t.Fatalf("size %d, %s: spare slot %d holds id %d", size, op, p, blk[s].id)
					}
				}
			}
		}
		for len(model) < size {
			if e := mk(); rng.Intn(4) == 0 {
				r.pushFront(e)
				model = append([]entry{e}, model...)
			} else {
				r.pushBack(e)
				model = append(model, e)
			}
		}
		check("fill", &r, model)
		for step := 0; step < 2*size+500; step++ {
			push := rng.Intn(10) < 4
			if len(model) <= size {
				push = rng.Intn(10) < 6
			}
			switch k := rng.Intn(10); {
			case push && k < 3:
				e := mk()
				r.pushFront(e)
				model = append([]entry{e}, model...)
				check("pushFront", &r, model)
			case push:
				e := mk()
				r.pushBack(e)
				model = append(model, e)
				check("pushBack", &r, model)
			case len(model) == 0:
			case k < 8:
				if got := r.popFront(); got.id != model[0].id {
					t.Fatalf("size %d: popFront = %d, model %d", size, got.id, model[0].id)
				}
				model = model[1:]
				check("popFront", &r, model)
			case k < 9:
				n := 1 + rng.Intn(min(len(model), 64))
				r.stealBack(n, &thief)
				thiefModel = append(thiefModel, model[len(model)-n:]...)
				model = append([]entry(nil), model[:len(model)-n]...)
				check("steal", &r, model)
				check("steal (thief)", &thief, thiefModel)
				if len(thiefModel) > blockLen {
					for _, e := range thiefModel {
						if got := thief.popFront(); got.id != e.id {
							t.Fatalf("size %d: thief pops %d, model %d", size, got.id, e.id)
						}
					}
					thiefModel = nil
					check("thief drained", &thief, thiefModel)
				}
			default:
				cutoff := rng.Int63n(100)
				due := r.extractDue(cutoff, nil)
				var kept, want []entry
				for _, e := range model {
					if e.dl != 0 && e.dl <= cutoff {
						want = append(want, e)
					} else {
						kept = append(kept, e)
					}
				}
				if len(due) != len(want) {
					t.Fatalf("size %d: extractDue(%d) took %d, model %d", size, cutoff, len(due), len(want))
				}
				for i := range due {
					if due[i].id != want[i].id {
						t.Fatalf("size %d: extracted[%d] = %d, model %d", size, i, due[i].id, want[i].id)
					}
				}
				model = kept
				check("extractDue", &r, model)
			}
		}
		for _, e := range model {
			if got := r.popFront(); got.id != e.id {
				t.Fatalf("size %d: drain pops %d, model %d", size, got.id, e.id)
			}
		}
		if len(r.bl) != 0 || r.minDL != 0 {
			t.Fatalf("size %d: drained ring holds %d blocks, minDL %d", size, len(r.bl), r.minDL)
		}
	}
}

// TestRingReturnsZeroedBlocks: a block goes back to the pool holding no
// entry, so the pool pins no Runner, ctx or deadline of a job that has
// left the queue. Entries that reference something go through every
// operation that can release a block, and each block a ring stops
// holding is checked right then, before anything could take it again.
func TestRingReturnsZeroedBlocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := new(countRunner)
	var r, thief ring
	held := map[*block]bool{}
	released := 0
	check := func() {
		now := map[*block]bool{}
		for _, b := range append(append([]*block(nil), r.bl...), thief.bl...) {
			now[b] = true
		}
		for b := range held {
			if !now[b] {
				released++
				if *b != (block{}) {
					t.Fatal("a block went back to the pool still holding an entry")
				}
			}
		}
		held = now
	}
	rng := rand.New(rand.NewSource(7))
	id := uint64(0)
	mk := func() entry {
		id++
		return entry{id: id, run: run, ctx: ctx, dl: int64(id % 7), t0: 1, pri: Low}
	}
	for step := 0; step < 20_000; step++ {
		// Alternate growing and shrinking phases, so the ring spans several
		// blocks and every release path runs at a block boundary.
		push := rng.Intn(10) < 3
		if (step/3000)%2 == 0 {
			push = rng.Intn(10) < 7
		}
		switch op := rng.Intn(10); {
		case push && op < 3:
			r.pushFront(mk())
		case push:
			r.pushBack(mk())
		case r.len() == 0:
		case op < 7:
			r.popFront()
		case op < 9:
			r.stealBack(1+rng.Intn(min(r.len(), 64)), &thief)
		default:
			r.extractDue(int64(rng.Intn(2)), nil)
		}
		if rng.Intn(100) == 0 {
			for thief.len() > 0 {
				thief.popFront()
			}
		}
		check()
	}
	for r.len() > 0 {
		r.popFront()
	}
	for thief.len() > 0 {
		thief.popFront()
	}
	check()
	if len(held) != 0 || released < 100 {
		t.Fatalf("%d blocks still held, %d released: the walk did not exercise the release paths", len(held), released)
	}
}

// TestPQueuePriorityOrder: popFront drains High before Normal before
// Low, FIFO within a class, and pushFront re-enters at the front of the
// entry's OWN class.
func TestPQueuePriorityOrder(t *testing.T) {
	var q pqueue
	q.pushBack(entry{id: 1, pri: Low})
	q.pushBack(entry{id: 2, pri: Normal})
	q.pushBack(entry{id: 3, pri: High})
	q.pushBack(entry{id: 4, pri: Low})
	q.pushBack(entry{id: 5, pri: High})
	q.pushBack(entry{id: 6, pri: Normal})
	// Residue for the Normal class: jumps its class's line, not Low's.
	q.pushFront(entry{id: 7, pri: Normal})
	want := []uint64{3, 5, 7, 2, 6, 1, 4}
	if q.len() != len(want) {
		t.Fatalf("len = %d, want %d", q.len(), len(want))
	}
	for i, w := range want {
		if got := q.popFront().id; got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if q.len() != 0 || q.capCells() != 0 {
		t.Fatalf("len = %d, %d cells held after drain", q.len(), q.capCells())
	}
}

// TestPQueueExtractDue: extraction crosses priority classes, returns
// entries in deadline order, leaves the rest in place, and repairs the
// deadline bound.
func TestPQueueExtractDue(t *testing.T) {
	var q pqueue
	q.pushBack(entry{id: 1, pri: Low, dl: 50})
	q.pushBack(entry{id: 2, pri: High})
	q.pushBack(entry{id: 3, pri: Normal, dl: 10})
	q.pushBack(entry{id: 4, pri: Normal, dl: 999})
	q.pushBack(entry{id: 5, pri: Low, dl: 30})
	q.pushBack(entry{id: 6, pri: Normal})
	if md := q.minDeadline(); md != 10 {
		t.Fatalf("minDeadline = %d, want 10", md)
	}
	due := q.extractDue(100, nil)
	var ids []uint64
	for _, e := range due {
		ids = append(ids, e.id)
	}
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 5 || ids[2] != 1 {
		t.Fatalf("due ids = %v, want [3 5 1] (deadline order)", ids)
	}
	if q.len() != 3 {
		t.Fatalf("len = %d after extraction, want 3", q.len())
	}
	if md := q.minDeadline(); md != 999 {
		t.Fatalf("minDeadline after extraction = %d, want 999", md)
	}
	// Survivors drain in priority order, dated or not.
	for i, w := range []uint64{2, 4, 6} {
		if got := q.popFront().id; got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	// An empty sweep still succeeds.
	if due := q.extractDue(1_000_000, nil); len(due) != 0 {
		t.Fatalf("extractDue on empty queue returned %d entries", len(due))
	}
}

// TestPQueueStealLowest: thieves take from the back of the LOWEST
// non-empty ring, so a victim's high-priority work is never migrated
// while lower-class work exists.
func TestPQueueStealLowest(t *testing.T) {
	var q pqueue
	for i := 1; i <= 4; i++ {
		q.pushBack(entry{id: uint64(i), pri: High})
	}
	for i := 5; i <= 8; i++ {
		q.pushBack(entry{id: uint64(i), pri: Low})
	}
	if got := q.lowest(); got != 4 {
		t.Fatalf("lowest = %d, want 4", got)
	}
	var transit ring
	q.stealBack(2, &transit)
	if transit.at(0).id != 7 || transit.at(1).id != 8 {
		t.Fatalf("stole ids %d,%d, want 7,8 (back of the Low ring)", transit.at(0).id, transit.at(1).id)
	}
	if transit.at(0).pri != Low {
		t.Fatalf("stolen entry lost its priority: %v", transit.at(0).pri)
	}
	if q.len() != 6 {
		t.Fatalf("len = %d after steal, want 6", q.len())
	}
	// With Low emptied, the Normal/High work becomes stealable — but only
	// ever the lowest class present.
	q.stealBack(1, &transit)
	q.stealBack(1, &transit)
	if transit.at(2).id != 6 || transit.at(3).id != 5 {
		t.Fatalf("follow-up steals got %d,%d, want 6,5", transit.at(2).id, transit.at(3).id)
	}
	if got := q.lowest(); got != 4 {
		t.Fatalf("lowest after draining Low = %d, want 4 (the High ring)", got)
	}
	if len(q.rings[ringIndex(Low)].bl) != 0 {
		t.Fatal("the emptied Low ring still holds a block")
	}
}
