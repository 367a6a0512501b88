package dispatch

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestTakeClassEDF drives takeClass directly: when a priority ring
// holds deadlined entries and cannot be drained whole in one round, the
// deadlined entries must lead the class in deadline order (EDF), with
// the overflow returned to the front still deadline-sorted — and
// already-expired entries must resolve, never run.
func TestTakeClassEDF(t *testing.T) {
	now := time.Now().UnixNano()
	h := time.Hour.Nanoseconds()
	s := &shard{batch: make([]entry, 4)}
	// Same class (Normal), submission order 3h, 4h, 2h, plus one
	// undeadlined entry FIFO-first.
	s.q.pushBack(entry{id: 10, pri: Normal})
	s.q.pushBack(entry{id: 1, pri: Normal, dl: now + 3*h})
	s.q.pushBack(entry{id: 2, pri: Normal, dl: now + 4*h})
	s.q.pushBack(entry{id: 3, pri: Normal, dl: now + 2*h})

	ri := ringIndex(Normal)
	n := s.takeClass(ri, 0, 2, now)
	if n != 2 {
		t.Fatalf("round 1 took %d, want 2", n)
	}
	if s.batch[0].id != 3 || s.batch[1].id != 1 {
		t.Fatalf("round 1 batch ids [%d %d], want [3 1] (earliest deadlines first)", s.batch[0].id, s.batch[1].id)
	}
	// Overflow (4h job, then the undeadlined one) went back to the front
	// in deadline order; a second assembly picks it up next.
	n = s.takeClass(ri, 0, 2, now)
	if n != 2 {
		t.Fatalf("round 2 took %d, want 2", n)
	}
	if s.batch[0].id != 2 || s.batch[1].id != 10 {
		t.Fatalf("round 2 batch ids [%d %d], want [2 10] (last deadline, then FIFO remainder)", s.batch[0].id, s.batch[1].id)
	}
	if s.q.len() != 0 {
		t.Fatalf("%d entries left in the queue", s.q.len())
	}

	// FIFO is preserved whenever the class fits in the round, deadlines
	// or not.
	s.q.pushBack(entry{id: 20, pri: Normal, dl: now + 4*h})
	s.q.pushBack(entry{id: 21, pri: Normal, dl: now + 2*h})
	n = s.takeClass(ri, 0, 4, now)
	if n != 2 || s.batch[0].id != 20 || s.batch[1].id != 21 {
		t.Fatalf("untruncated class reordered: n=%d ids [%d %d], want FIFO [20 21]", n, s.batch[0].id, s.batch[1].id)
	}

	// An entry already past its deadline expires during the EDF pull.
	s.expired = s.expired[:0]
	s.q.pushBack(entry{id: 30, pri: Normal, dl: now - 1})
	s.q.pushBack(entry{id: 31, pri: Normal, dl: now + h})
	s.q.pushBack(entry{id: 32, pri: Normal})
	n = s.takeClass(ri, 0, 2, now)
	if n != 2 || s.batch[0].id != 31 || s.batch[1].id != 32 {
		t.Fatalf("expiring pull: n=%d ids [%d %d], want [31 32]", n, s.batch[0].id, s.batch[1].id)
	}
	if len(s.expired) != 1 || s.expired[0].r.ID != 30 || !s.expired[0].r.Expired {
		t.Fatalf("expired slice %+v, want exactly id 30", s.expired)
	}
}

// TestDeadlineStormPinsNothing: one round assembly that expires a
// 50 000-job backlog leaves the shard holding nothing sized by it — the
// assembly's scratch (dueBuf, expired) is dropped once it outgrew a
// block, and the rings hold no block.
func TestDeadlineStormPinsNothing(t *testing.T) {
	const jobs = 50_000
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Wedge the loop inside a round so the whole backlog meets one assembly.
	started, gate := make(chan struct{}), make(chan struct{})
	if _, err := d.Do(context.Background(), bare(func() { close(started); <-gate })); err != nil {
		t.Fatal(err)
	}
	<-started
	r := new(countRunner)
	tasks := make([]RunnerTask, jobs)
	past := time.Now().Add(-time.Second).UnixNano()
	for i := range tasks {
		tasks[i] = RunnerTask{Runner: r, Deadline: past}
	}
	if _, err := d.DoRunners(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	close(gate)
	d.Flush()
	if ran, res, exp := r.ran.Load(), r.resolved.Load(), d.Stats().Expired; ran != 0 || res != jobs || exp != jobs {
		t.Fatalf("ran %d, resolved %d, expired %d; want 0, %d, %d", ran, res, exp, jobs, jobs)
	}
	s := d.shards[0]
	s.mu.Lock()
	due, expired, cells := cap(s.dueBuf), cap(s.expired), s.q.capCells()
	s.mu.Unlock()
	if due > blockLen || expired > blockLen || cells != 0 {
		t.Errorf("after the storm the shard keeps dueBuf cap %d, expired cap %d (want ≤ %d each) and %d queue cells (want 0)",
			due, expired, blockLen, cells)
	}
}

// TestEDFOrderWithinClass is the end-to-end version: two same-priority
// deadlined jobs (deadlines far beyond the promotion window, so only
// round truncation can order them) must run in deadline order, not
// submission order. With MaxBatch=2 and three queued jobs the class is
// truncated every round; FIFO assembly would run the 2h job last,
// EDF runs it first.
func TestEDFOrderWithinClass(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Wedge the current round so the three deadline jobs accumulate and
	// are assembled together.
	if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	var mu sync.Mutex
	var order []string
	now := time.Now()
	mk := func(name string, dl time.Duration) {
		t.Helper()
		_, err := d.Do(context.Background(), Task{
			Fn:       func(context.Context) error { return nil },
			Deadline: now.Add(dl),
			Callback: func(JobResult) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mk("d3h", 3*time.Hour)
	mk("d4h", 4*time.Hour)
	mk("d2h", 2*time.Hour)
	close(gate)
	d.Flush()

	mu.Lock()
	defer mu.Unlock()
	pos := map[string]int{}
	for i, name := range order {
		pos[name] = i
	}
	if len(pos) != 3 {
		t.Fatalf("resolutions %v, want all three deadline jobs exactly once", order)
	}
	// EDF: the 2h job is pulled into the first post-gate round, the 4h
	// job is pushed to the last. FIFO would give the opposite.
	if pos["d2h"] > pos["d4h"] {
		t.Fatalf("completion order %v: the 2h-deadline job finished after the 4h one (submission order won over deadline order)", order)
	}
}
