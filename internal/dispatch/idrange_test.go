package dispatch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
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
	cursor := d.leased()
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
	d, err := New(Config{Shards: 3, WorkersPerShard: 2, MaxBatch: 4, QueueDepth: 4, SubmitPolicy: FailFast})
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
		d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 4, QueueDepth: 2, SubmitPolicy: Block})
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

// TestCloseRacesUnboundedDo: four goroutines submit unbounded Dos until
// one is refused while Close runs, in memory and over mmap at
// JournalBatch 4. Close sets the cursor's closed bit and then flushes, so
// by the time it returns every Do that got an id has run its payload and
// its callback exactly once, and no refused Do ran anything; the ids tile
// [1, leased]; a Flush and a second Close return at once and a DoBatch is
// refused. Run under -race.
func TestCloseRacesUnboundedDo(t *testing.T) {
	for _, backend := range []string{"memory", "mmap"} {
		t.Run(backend, func(t *testing.T) {
			for iter := 0; iter < 20; iter++ {
				cfg := Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 16}
				if backend == "mmap" {
					requireMmap(t)
					cfg.newMem, cfg.MaxJobs, cfg.JournalBatch = mmapFactory(t.TempDir()), 1<<16, 4
				}
				raceCloseWithDo(t, cfg)
			}
		})
	}
}

func raceCloseWithDo(t *testing.T, cfg Config) {
	const submitters = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type attempt struct {
		ran, fired atomic.Int32
		firedID    atomic.Uint64
		id         uint64 // 0: refused
	}
	var ranN, firedN atomic.Int64
	tries := make([][]*attempt, submitters)
	started, start := sync.Once{}, make(chan struct{})
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Far past the point Close is started from, wait for it: a
				// starved closer must not let the stream fill the journal.
				for d.leased() >= 1<<15 && !d.closed() {
					runtime.Gosched()
				}
				a := &attempt{}
				tries[g] = append(tries[g], a)
				h, err := d.Do(context.Background(), Task{
					Fn:       func(context.Context) error { a.ran.Add(1); ranN.Add(1); return nil },
					Callback: func(r JobResult) { a.fired.Add(1); a.firedID.Store(r.ID); firedN.Add(1) },
				})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				a.id = h.ID
				if h.ID >= 64 {
					started.Do(func() { close(start) })
				}
			}
		}()
	}
	select {
	case <-start:
	case <-time.After(20 * time.Second):
		t.Fatal("no submissions before Close")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ranAtClose, firedAtClose := ranN.Load(), firedN.Load()
	wg.Wait()
	var got []uint64
	for _, as := range tries {
		for _, a := range as {
			ran, fired := a.ran.Load(), a.fired.Load()
			if a.id == 0 && (ran != 0 || fired != 0) {
				t.Fatalf("a refused Do ran %d times and fired %d", ran, fired)
			}
			if a.id != 0 && (ran != 1 || fired != 1 || a.firedID.Load() != a.id) {
				t.Fatalf("id %d ran %d times and fired %d (with id %d), want once each", a.id, ran, fired, a.firedID.Load())
			}
			if a.id != 0 {
				got = append(got, a.id)
			}
		}
	}
	// Runs and callbacks only count up, and each accepted Do has exactly
	// one of each: all of them had happened when Close returned.
	if n := int64(len(got)); ranAtClose != n || firedAtClose != n {
		t.Fatalf("%d Dos accepted, but %d payloads had run and %d callbacks fired when Close returned", n, ranAtClose, firedAtClose)
	}
	checkDenseLease(t, d, got)
	after := make(chan error, 1)
	go func() { d.Flush(); after <- d.Close() }()
	select {
	case err := <-after:
		if err != nil {
			t.Fatalf("second Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush or a second Close blocked after Close")
	}
	if _, err := d.DoBatch(context.Background(), []Task{bare(func() {})}); !errors.Is(err, ErrClosed) {
		t.Fatalf("DoBatch after Close: err = %v, want ErrClosed", err)
	}
}

// TestRecoveryAcrossRangeBoundary: a durable single-submit stream of
// several rounds per shard, killed mid-stream and replayed — recovery
// must hand back the same ids, skipping exactly the journaled jobs (no
// duplicate, and no loss but the claims the death stopped), on a journal
// sized for exactly that many jobs.
func TestRecoveryAcrossRangeBoundary(t *testing.T) {
	const (
		shards  = 2
		workers = 2
		jobs    = 320
	)
	cfg := Config{
		Shards:          shards,
		WorkersPerShard: workers, MaxBatch: 32,
		MaxJobs: jobs,
	}

	eo := newExactlyOnce(jobs)
	submit := func(d *Dispatcher, run func(f func())) []uint64 {
		ids := make([]uint64, jobs)
		for i := 0; i < jobs; i++ {
			h, err := d.Do(context.Background(), bare(func() { run(func() { eo.counts[i].Add(1) }) }))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = h.ID
		}
		return ids
	}

	// The host dies a quarter of the way in, at an acked journal flush.
	d1, h := onHost(t, cfg, 2+jobs/4)
	ids1 := submit(d1, h.Run)

	// The successor replays the identical stream: same submission order,
	// so every id matches its first incarnation.
	d2, err := New(afterDeath(t, cfg, h))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec := d2.Stats().Recovered; rec != 0 {
		t.Fatalf("recovered count %d before any re-submission", rec)
	}
	ranBefore := eo.total()
	ids2 := submit(d2, func(f func()) { f() })
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("replayed submission %d got id %d, want %d (id sequence not deterministic across restart)", i, ids2[i], ids1[i])
		}
	}
	d2.Flush()
	st := d2.Stats()
	eo.verifyLoss(t, int(st.Recovered)-ranBefore, shards*workers)
	if st.Recovered == 0 {
		t.Fatal("nothing recovered from the journal; the crash happened too early to test replay")
	}
	if st.Duplicates != 0 {
		t.Fatalf("%d duplicates across the restart", st.Duplicates)
	}
}
