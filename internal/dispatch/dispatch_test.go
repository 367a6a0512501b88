package dispatch

import (
	"context"
	"sync/atomic"
	"testing"
)

// exactlyOnce tracks per-job execution counts and summarizes violations.
type exactlyOnce struct {
	counts []atomic.Int32
}

func newExactlyOnce(n int) *exactlyOnce {
	return &exactlyOnce{counts: make([]atomic.Int32, n)}
}

// bare is the Task of a payload that takes no context and cannot fail.
func bare(fn func()) Task {
	return Task{Fn: func(context.Context) error { fn(); return nil }}
}

func (e *exactlyOnce) job(i int) Task {
	return bare(func() { e.counts[i].Add(1) })
}

func (e *exactlyOnce) verify(t *testing.T) {
	t.Helper()
	lost, dup := 0, 0
	for i := range e.counts {
		switch c := e.counts[i].Load(); {
		case c == 0:
			lost++
		case c > 1:
			dup++
		}
	}
	if lost != 0 || dup != 0 {
		t.Fatalf("%d jobs lost, %d jobs executed more than once", lost, dup)
	}
}

// everyRounds repeats the crash plan of a shard's first n rounds for as
// long as the shard runs. A plan confined to the opening rounds is inert
// when those rounds are a job or two each — a lone submitter that has
// barely started, a loaded machine — because no worker gets to its crash
// step; the full-sized rounds come later, and the plan has to still be
// there when they do.
func everyRounds(n int, plan func(shard, round int) []uint64) func(shard, round int) []uint64 {
	return func(shard, round int) []uint64 { return plan(shard, round%n) }
}

// TestDispatcherCarryoverProperty is the round-carryover property test: a
// stream of jobs pushed through small rounds with jitter and persistent
// crash injection must finish with every job performed exactly once —
// nothing lost to the per-round effectiveness tail, nothing duplicated
// across the round boundary. Run under -race in CI.
func TestDispatcherCarryoverProperty(t *testing.T) {
	const jobs = 8000
	crashRounds := 12
	d, err := New(Config{
		Shards:   4,
		Workers:  3,
		MaxBatch: 64, // force many rounds and much carryover
		Jitter:   true,
		Seed:     1,
		CrashPlan: everyRounds(crashRounds, func(shard, round int) []uint64 {
			// Workers 1 and 2 crash at staggered, round-varying points;
			// worker 0 always survives.
			return []uint64{0, uint64(40 + 13*round + 7*shard), uint64(90 + 5*round)}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	eo := newExactlyOnce(jobs)
	for i := 0; i < jobs; i++ {
		if i%3 == 0 {
			if _, err := d.Do(context.Background(), eo.job(i)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Mix in small batches to cover both submission paths.
		batch := []Task{eo.job(i)}
		for i+1 < jobs && len(batch) < 5 && (i+1)%3 != 0 {
			i++
			batch = append(batch, eo.job(i))
		}
		if _, err := d.DoBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	eo.verify(t)

	st := d.Stats()
	if st.Performed != jobs {
		t.Fatalf("performed %d of %d", st.Performed, jobs)
	}
	if st.Pending != 0 {
		t.Fatalf("pending %d after Flush", st.Pending)
	}
	if st.Duplicates != 0 {
		t.Fatalf("stats report %d duplicates", st.Duplicates)
	}
	if st.Crashes == 0 {
		t.Fatal("crash plan injected no crashes; test lost its teeth")
	}
	if st.Residue == 0 {
		t.Fatal("no residue was ever carried over; test lost its teeth")
	}
}

// TestDispatcherE2EStream is the acceptance end-to-end run: 100k jobs
// through 4 shards with crash injection, zero duplicates, zero lost jobs.
func TestDispatcherE2EStream(t *testing.T) {
	const jobs = 100_000
	d, err := New(Config{
		Shards:   4,
		Workers:  4,
		MaxBatch: 512,
		Seed:     2,
		CrashPlan: everyRounds(25, func(shard, round int) []uint64 {
			return []uint64{0, 300, uint64(500 + 31*round), 0}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	eo := newExactlyOnce(jobs)
	const chunk = 1000
	fns := make([]Task, 0, chunk)
	for base := 0; base < jobs; base += chunk {
		fns = fns[:0]
		for i := base; i < base+chunk; i++ {
			fns = append(fns, eo.job(i))
		}
		if _, err := d.DoBatch(context.Background(), fns); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	eo.verify(t)

	st := d.Stats()
	if st.Performed != jobs || st.Duplicates != 0 {
		t.Fatalf("performed %d, duplicates %d", st.Performed, st.Duplicates)
	}
	if st.Crashes == 0 {
		t.Fatal("no crashes injected")
	}
	if len(st.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Rounds == 0 || sh.Performed == 0 {
			t.Fatalf("shard %d idle: %+v", i, sh)
		}
	}
}

// TestDispatcherTrickle drives batches smaller than the worker count, so
// every round needs padding, and interleaves Flushes with submissions.
func TestDispatcherTrickle(t *testing.T) {
	const jobs = 200
	d, err := New(Config{Shards: 2, Workers: 8, MaxBatch: 32, Jitter: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eo := newExactlyOnce(jobs)
	for i := 0; i < jobs; i++ {
		if _, err := d.Do(context.Background(), eo.job(i)); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			d.Flush()
		}
	}
	d.Flush()
	eo.verify(t)
}

// TestDispatcherCloseDrains checks Close completes pending work before
// stopping and that the dispatcher rejects submissions afterwards.
func TestDispatcherCloseDrains(t *testing.T) {
	const jobs = 3000
	d, err := New(Config{Shards: 2, Workers: 4, MaxBatch: 128, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eo := newExactlyOnce(jobs)
	for i := 0; i < jobs; i++ {
		if _, err := d.Do(context.Background(), eo.job(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	eo.verify(t)
	if _, err := d.Do(context.Background(), bare(func() {})); err != ErrClosed {
		t.Fatalf("Do after Close: err = %v, want ErrClosed", err)
	}
	if _, err := d.DoBatch(context.Background(), []Task{bare(func() {})}); err != ErrClosed {
		t.Fatalf("DoBatch after Close: err = %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDispatcherIDs: every id comes off one cursor, so ids are 1, 2, 3,
// … in acceptance order across Do, DoBatch and DoRunners however they
// interleave and whichever shards round-robin placement picks.
func TestDispatcherIDs(t *testing.T) {
	d, err := New(Config{Shards: 3, Workers: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	noop := bare(func() {})
	single := func(want uint64) {
		t.Helper()
		h, err := d.Do(ctx, noop)
		if err != nil {
			t.Fatal(err)
		}
		if h.ID != want {
			t.Fatalf("Do got id %d, want %d", h.ID, want)
		}
	}
	single(1)
	single(2)
	hs, err := d.DoBatch(ctx, []Task{noop, noop, noop})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if want := uint64(3 + i); h.ID != want {
			t.Fatalf("DoBatch task %d got id %d, want %d", i, h.ID, want)
		}
	}
	var r countRunner
	first, err := d.DoRunners(ctx, []RunnerTask{{Runner: &r}, {Runner: &r}})
	if err != nil {
		t.Fatal(err)
	}
	if first != 6 {
		t.Fatalf("DoRunners first id %d, want 6", first)
	}
	single(8)
}

// TestDispatcherIDsSingleShard: with one shard the single-submit stream
// is the same dense sequence from 1.
func TestDispatcherIDsSingleShard(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for want := uint64(1); want <= 66; want++ {
		h, err := d.Do(context.Background(), bare(func() {}))
		if err != nil {
			t.Fatal(err)
		}
		if h.ID != want {
			t.Fatalf("single-shard id %d, want %d", h.ID, want)
		}
	}
}

// The block deque's unit tests (the slice model, block release, steals)
// live in queue_test.go.
