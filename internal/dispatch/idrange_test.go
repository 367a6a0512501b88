package dispatch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// checkDenseLease asserts the lease invariant after a dispatcher has
// quiesced: the assigned ids tile [1, cursor] exactly — every leased id
// is accounted for once, no id twice, no gaps. This is what keeps the
// durable id sequence dense (deterministic re-submission reproduces it)
// no matter how many submissions were rejected, cancelled or cut off by
// Close along the way.
func checkDenseLease(t *testing.T, d *Dispatcher, ids []uint64) {
	t.Helper()
	cursor := d.idCursor.v.Load()
	seen := make(map[uint64]bool, cursor)
	for _, id := range ids {
		if id == 0 || id > cursor {
			t.Fatalf("id %d outside the leased range [1, %d]", id, cursor)
		}
		if seen[id] {
			t.Fatalf("id %d assigned twice", id)
		}
		seen[id] = true
	}
	for id := uint64(1); id <= cursor; id++ {
		if !seen[id] {
			t.Fatalf("id %d was leased but never assigned — a gap in the sequence", id)
		}
	}
}

// TestIDRangesDenseUnderRejections: FailFast rejections and dead-ctx
// admissions must not burn ids or leave gaps in the sequence.
func TestIDRangesDenseUnderRejections(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{Shards: 3, Workers: 2, MaxBatch: 4, QueueDepth: 4, Policy: FailFast, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	rejected := 0
	for i := 0; i < 300; i++ {
		h, err := d.Do(context.Background(), bare(func() { <-gate }))
		if errors.Is(err, ErrQueueFull) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.ID)
	}
	for i := 0; i < 40; i++ {
		hs, err := d.DoBatch(context.Background(), []Task{bare(func() { <-gate }), bare(func() { <-gate })})
		if errors.Is(err, ErrQueueFull) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, hs[0].ID, hs[1].ID)
	}
	if rejected == 0 {
		t.Fatal("queues never filled; the test exercised no rejections")
	}
	// A dead ctx is rejected at admission, consuming nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Do(ctx, Task{Fn: func(context.Context) error { return nil }}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-ctx Do returned %v", err)
	}
	close(gate)
	d.Flush()
	checkDenseLease(t, d, ids)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIDRangesDenseUnderCancelCloseRace: Block-policy submitters
// released by ctx cancellation or by a concurrent Close must leave the
// id sequence gapless. Run under -race.
func TestIDRangesDenseUnderCancelCloseRace(t *testing.T) {
	for iter := 0; iter < 4; iter++ {
		gate := make(chan struct{})
		d, err := New(Config{Shards: 2, Workers: 2, MaxBatch: 4, QueueDepth: 2, Policy: Block, Seed: int64(iter)})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var ids []uint64
		// Wedge both shards full of gated jobs.
		for i := 0; i < 4; i++ {
			h, err := d.Do(context.Background(), bare(func() { <-gate }))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, h.ID)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := context.Background()
				if i%2 == 0 {
					c = ctx // half the parked submitters get cancelled
				}
				h, err := d.Do(c, Task{Fn: func(context.Context) error { return nil }})
				if err != nil {
					return // cancelled or closed: must have consumed nothing
				}
				mu.Lock()
				ids = append(ids, h.ID)
				mu.Unlock()
			}(i)
		}
		time.Sleep(10 * time.Millisecond) // let them park
		cancel()
		// Race Close against the remaining parked submitters, then free
		// the wedged rounds so Close can drain.
		closed := make(chan error, 1)
		go func() { closed <- d.Close() }()
		time.Sleep(5 * time.Millisecond)
		close(gate)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		mu.Lock()
		checkDenseLease(t, d, ids)
		mu.Unlock()
	}
}

// TestRecoveryAcrossRangeBoundary: a durable single-submit stream of
// several rounds per shard, crashed mid-stream and replayed — recovery
// must hand back the same ids, skipping exactly the journaled jobs (no
// duplicate, no loss), on a journal sized for exactly that many jobs.
func TestRecoveryAcrossRangeBoundary(t *testing.T) {
	requireMmap(t)
	const (
		shards = 2
		jobs   = 320
	)
	dir := t.TempDir()
	cfg := Config{
		Shards:  shards,
		Workers: 2, MaxBatch: 32,
		MaxJobs: jobs,
		NewMem:  mmapFactory(dir),
		Seed:    99,
	}

	eo := newExactlyOnce(jobs)
	submit := func(d *Dispatcher) []uint64 {
		ids := make([]uint64, jobs)
		for i := 0; i < jobs; i++ {
			h, err := d.Do(context.Background(), eo.job(i))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = h.ID
		}
		return ids
	}

	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids1 := submit(d1)
	// Let it perform a decent prefix, then die at a round boundary.
	waitFor(t, "some progress before the crash", func() bool {
		return d1.Stats().Performed > jobs/4
	})
	d1.abandon()

	// The successor replays the identical stream: same submission order,
	// so every id matches its first incarnation.
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec := d2.Stats().Recovered; rec != 0 {
		t.Fatalf("recovered count %d before any re-submission", rec)
	}
	ids2 := submit(d2)
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("replayed submission %d got id %d, want %d (id sequence not deterministic across restart)", i, ids2[i], ids1[i])
		}
	}
	d2.Flush()
	eo.verify(t) // every job ran exactly once across both incarnations
	st := d2.Stats()
	if st.Recovered == 0 {
		t.Fatal("nothing recovered from the journal; the crash happened too early to test replay")
	}
	if st.Duplicates != 0 {
		t.Fatalf("%d duplicates across the restart", st.Duplicates)
	}
}
