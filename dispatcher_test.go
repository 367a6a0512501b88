package atmostonce

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// bare is the Task of a payload that takes no context and cannot fail.
func bare(fn func()) Task {
	return Task{Fn: func(context.Context) error { fn(); return nil }}
}

// TestDispatcherEndToEnd streams 100k jobs from concurrent producers
// through 4 shards with crash injection: every job must execute exactly
// once (zero duplicates, zero lost), with the per-round residue drained by
// Flush.
func TestDispatcherEndToEnd(t *testing.T) {
	const (
		jobs      = 100_000
		producers = 4
	)
	d, err := NewDispatcher(DispatcherConfig{
		Shards:          4,
		WorkersPerShard: 4,
		MaxBatch:        512,
		Jitter:          true,
		Seed:            9,
		CrashPlan: func(shard, round int) []uint64 { // every round: see TestDispatcherAsyncAPI
			return []uint64{0, uint64(200 + 17*(round%20)), 400, 0}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	counts := make([]atomic.Int32, jobs)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for base := p * (jobs / producers); base < (p+1)*(jobs/producers); base += 500 {
				fns := make([]Task, 500)
				for i := range fns {
					idx := base + i
					fns[i] = bare(func() { counts[idx].Add(1) })
				}
				if _, err := d.DoBatch(context.Background(), fns); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	d.Flush()

	lost, dup := 0, 0
	for i := range counts {
		switch c := counts[i].Load(); {
		case c == 0:
			lost++
		case c > 1:
			dup++
		}
	}
	if lost != 0 || dup != 0 {
		t.Fatalf("%d lost, %d duplicated of %d jobs", lost, dup, jobs)
	}

	st := d.Stats()
	if st.Performed != jobs || st.Pending != 0 {
		t.Fatalf("stats: performed %d pending %d", st.Performed, st.Pending)
	}
	if st.Duplicates != 0 {
		t.Fatalf("stats: %d duplicates", st.Duplicates)
	}
	if st.Crashes == 0 || st.Residue == 0 {
		t.Fatalf("fault injection inert: crashes=%d residue=%d", st.Crashes, st.Residue)
	}
	if st.Rounds == 0 || st.JobsPerSec <= 0 {
		t.Fatalf("throughput counters missing: rounds=%d jobs/sec=%f", st.Rounds, st.JobsPerSec)
	}
}

// TestDispatcherAsyncAPI drives the public async pipeline end to end:
// futures and callbacks under a bounded queue, with crash injection
// forcing residue carry-over, every future resolving exactly once.
func TestDispatcherAsyncAPI(t *testing.T) {
	const jobs = 2000
	d, err := NewDispatcher(DispatcherConfig{
		Shards:          2,
		WorkersPerShard: 3,
		MaxBatch:        64,
		QueueDepth:      256,
		SubmitPolicy:    Block,
		Jitter:          true,
		Seed:            21,
		// Every round, not the first few: a shard's opening rounds can be
		// a job or two each (the lone submitter below has barely started),
		// too short for any worker to reach its crash step.
		CrashPlan: func(shard, round int) []uint64 {
			return []uint64{0, uint64(30 + 9*(round%8)), 80}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	counts := make([]atomic.Int32, jobs)
	var fired atomic.Int64
	chans := make([]<-chan JobResult, 0, jobs/2)
	ids := make([]uint64, 0, jobs/2)
	for i := 0; i < jobs; i++ {
		idx := i
		task := bare(func() { counts[idx].Add(1) })
		if i%2 == 0 {
			h, err := d.Do(context.Background(), task)
			if err != nil {
				t.Fatal(err)
			}
			chans, ids = append(chans, h.Done()), append(ids, h.ID)
			continue
		}
		task.Callback = func(JobResult) { fired.Add(1) }
		if _, err := d.Do(context.Background(), task); err != nil {
			t.Fatal(err)
		}
	}
	for i, ch := range chans {
		r := <-ch
		if r.ID != ids[i] || r.Recovered {
			t.Fatalf("future %d: %+v, want id %d", i, r, ids[i])
		}
	}
	d.Flush()
	if got := fired.Load(); got != jobs/2 {
		t.Fatalf("%d callbacks fired, want %d", got, jobs/2)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
	st := d.Stats()
	if st.Duplicates != 0 || st.Crashes == 0 {
		t.Fatalf("duplicates=%d crashes=%d", st.Duplicates, st.Crashes)
	}
	for i, sh := range st.Shards {
		if sh.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth %d after Flush", i, sh.QueueDepth)
		}
	}
}

// TestDispatcherFailFastAPI: the public FailFast policy surfaces
// ErrQueueFull and rejections consume no ids.
func TestDispatcherFailFastAPI(t *testing.T) {
	gate := make(chan struct{})
	d, err := NewDispatcher(DispatcherConfig{
		Shards:          1,
		WorkersPerShard: 2,
		MaxBatch:        2,
		QueueDepth:      2,
		SubmitPolicy:    FailFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted := uint64(0)
	sawFull := false
	for i := 0; i < 64 && !sawFull; i++ {
		h, err := d.Do(context.Background(), bare(func() { <-gate }))
		switch {
		case err == nil:
			accepted++
			if h.ID != accepted {
				t.Fatalf("id %d after %d accepts (rejections burned ids?)", h.ID, accepted)
			}
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never rejected")
	}
	close(gate)
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherDefaults exercises the zero config and tiny submissions.
func TestDispatcherDefaults(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	if _, err := d.Do(context.Background(), bare(func() { ran.Add(1) })); err != nil {
		t.Fatal(err)
	}
	if hs, err := d.DoBatch(context.Background(), nil); err != nil || hs != nil {
		t.Fatalf("empty batch: handles=%v err=%v", hs, err)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatalf("job ran %d times", ran.Load())
	}
}

// TestDispatcherDurableBackend drives the public durable configuration:
// a dispatcher over "mmap:" register files performs a stream, closes
// cleanly, and a second dispatcher over the same files resolves the
// whole re-submitted stream from the journal without running a single
// payload again. (The crash path — a killed process rather than a clean
// Close — is exercised by internal/dispatch's recovery tests and by
// examples/recover.)
func TestDispatcherDurableBackend(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap backend requires linux")
	}
	const jobs = 500
	cfg := DispatcherConfig{
		Shards:          2,
		WorkersPerShard: 2,
		MaxBatch:        64,
		Backend:         "counting:mmap:" + filepath.Join(t.TempDir(), "regs"),
		MaxJobs:         jobs,
	}
	var runs atomic.Int64
	fns := make([]Task, jobs)
	for i := range fns {
		fns[i] = bare(func() { runs.Add(1) })
	}

	d1, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	if err := d1.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := d1.Stats(); st.Recovered != 0 || st.Performed != jobs {
		t.Fatalf("first incarnation: %+v", st)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != jobs {
		t.Fatalf("ran %d payloads, want %d", got, jobs)
	}

	d2, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	if got := runs.Load(); got != jobs {
		t.Fatalf("restart re-ran payloads: %d total, want %d", got, jobs)
	}
	if st := d2.Stats(); st.Recovered != jobs || st.Duplicates != 0 {
		t.Fatalf("restart stats: %+v", st)
	}

	// An unknown backend spec surfaces as a constructor error.
	if _, err := NewDispatcher(DispatcherConfig{Backend: "bogus:x", MaxJobs: 1}); err == nil {
		t.Fatal("unknown backend spec accepted")
	}
}
