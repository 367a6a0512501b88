package dispatch

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDispatcherRandomSoak is the dispatcher-level chaos soak: randomized
// shard/worker/queue shapes, continuous crash injection via CrashPlan,
// and concurrent async submitters mixing every submission path. Each
// iteration asserts the full contract — every job executed exactly once,
// every future resolved exactly once, zero duplicates, bounded queues
// never exceeded. Iterations default low so `go test ./...` stays fast;
// CI's race job raises them via AMO_SOAK_ITERS. Run under -race.
func TestDispatcherRandomSoak(t *testing.T) {
	iters := 3
	if s := os.Getenv("AMO_SOAK_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad AMO_SOAK_ITERS %q: %v", s, err)
		}
		iters = n
	}
	if testing.Short() {
		iters = 2
	}
	seed := time.Now().UnixNano()
	t.Logf("soak seed %d (%d iterations)", seed, iters)
	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < iters; it++ {
		cfg := Config{
			Shards:          1 + rng.Intn(4),
			WorkersPerShard: 2 + rng.Intn(4),
			MaxBatch:        16 << rng.Intn(4),
			Seed:            rng.Int63(),
		}
		if rng.Intn(2) == 0 {
			cfg.QueueDepth = 8 << rng.Intn(5)
		}
		if rng.Intn(3) == 0 {
			cfg.RoundTarget = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		// Continuous crash injection: every round, each worker but a
		// guaranteed survivor crashes at a random step. Crash parameters
		// must be deterministic per (shard, round) — the plan is called
		// from concurrent shard loops — so derive them by hashing.
		crashSeed := rng.Int63()
		m := cfg.WorkersPerShard
		cfg.CrashPlan = func(shard, round int) []uint64 {
			h := uint64(crashSeed) ^ uint64(shard)*0x9E3779B97F4A7C15 ^ uint64(round)*0xBF58476D1CE4E5B9
			v := make([]uint64, m)
			for i := 1; i < m; i++ {
				h ^= h >> 27
				h *= 0x94D049BB133111EB
				if h%4 != 0 { // 3/4 of the non-survivor workers crash
					// Low step budgets: bounded queues cut tiny rounds, and a
					// budget beyond a worker's total steps never fires.
					v[i] = 2 + h%48
				}
			}
			return v
		}
		jobs := 2000 + rng.Intn(4000)
		t.Logf("iter %d: shards=%d workers=%d maxBatch=%d queueDepth=%d target=%v jobs=%d",
			it, cfg.Shards, cfg.WorkersPerShard, cfg.MaxBatch, cfg.QueueDepth, cfg.RoundTarget, jobs)
		soakOnce(t, cfg, jobs, rng.Int63())
		if t.Failed() {
			return
		}
	}
}

// soakOnce drives one randomized dispatcher shape with 4 concurrent
// submitters — mixing Do (result unread, future, callback) and DoBatch
// across all three priorities and random deadlines — and verifies the exactly-once and
// exactly-one-resolution contracts: a job either ran exactly once, or
// (deadline jobs only) expired exactly once without ever running.
func soakOnce(t *testing.T, cfg Config, jobs int, seed int64) {
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	eo := newExactlyOnce(jobs)
	resolutions := make([]atomic.Int32, jobs)
	isAsync := make([]atomic.Bool, jobs)
	hasDeadline := make([]atomic.Bool, jobs)
	expired := make([]atomic.Bool, jobs)
	priorities := [...]Priority{High, Normal, Low}

	// Live invariant sampler: a bounded queue must never be observed
	// past QueueDepth, crash-injected residue and stealing included.
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	if cfg.QueueDepth > 0 {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			for {
				for i, sh := range d.Stats().Shards {
					if sh.QueueDepth > cfg.QueueDepth {
						t.Errorf("soak: shard %d queue observed at %d, bound %d", i, sh.QueueDepth, cfg.QueueDepth)
						return
					}
				}
				select {
				case <-stopSampler:
					return
				default:
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}

	const submitters = 4
	var wg sync.WaitGroup
	per := jobs / submitters
	for p := 0; p < submitters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			lo, hi := p*per, (p+1)*per
			if p == submitters-1 {
				hi = jobs
			}
			for i := lo; i < hi; {
				switch rng.Intn(6) {
				case 4: // random priority, no deadline
					idx := i
					isAsync[idx].Store(true)
					if _, err := d.Do(context.Background(), Task{
						Fn:       eo.job(idx).Fn,
						Priority: priorities[rng.Intn(len(priorities))],
						Callback: func(JobResult) { resolutions[idx].Add(1) },
					}); err != nil {
						t.Error(err)
						return
					}
					i++
				case 5: // random priority AND a tight random deadline
					idx := i
					isAsync[idx].Store(true)
					hasDeadline[idx].Store(true)
					// Deadlines from 1ms in the past to 3ms out: some expire
					// at round assembly, some race their round and may go
					// either way — both outcomes must resolve exactly once.
					dl := time.Now().Add(time.Duration(rng.Intn(4))*time.Millisecond - time.Millisecond)
					if _, err := d.Do(context.Background(), Task{
						Fn:       eo.job(idx).Fn,
						Priority: priorities[rng.Intn(len(priorities))],
						Deadline: dl,
						Callback: func(r JobResult) {
							if r.Expired {
								expired[idx].Store(true)
							}
							resolutions[idx].Add(1)
						},
					}); err != nil {
						t.Error(err)
						return
					}
					i++
				case 0: // bare payload, result unread
					if _, err := d.Do(context.Background(), eo.job(i)); err != nil {
						t.Error(err)
						return
					}
					i++
				case 1: // future
					idx := i
					isAsync[idx].Store(true)
					h, err := d.Do(context.Background(), eo.job(idx))
					if err != nil {
						t.Error(err)
						return
					}
					go func() {
						r := <-h.Done()
						if r.ID == 0 {
							t.Error("future resolved with zero id")
						}
						resolutions[idx].Add(1)
					}()
					i++
				case 2: // callback
					idx := i
					isAsync[idx].Store(true)
					job := eo.job(idx)
					job.Callback = func(JobResult) { resolutions[idx].Add(1) }
					if _, err := d.Do(context.Background(), job); err != nil {
						t.Error(err)
						return
					}
					i++
				default: // batch
					n := 1 + rng.Intn(40)
					if n > hi-i {
						n = hi - i
					}
					fns := make([]Task, n)
					for j := 0; j < n; j++ {
						fns[j] = eo.job(i + j)
					}
					if _, err := d.DoBatch(context.Background(), fns); err != nil {
						t.Error(err)
						return
					}
					i += n
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		close(stopSampler)
		samplerWG.Wait()
		return
	}
	d.Flush()
	close(stopSampler)
	samplerWG.Wait()
	// Exactly-once with expiry: a job either ran exactly once, or — only
	// if it carried a deadline — expired exactly once without running.
	wantExpired := uint64(0)
	for i := range eo.counts {
		c := eo.counts[i].Load()
		if hasDeadline[i].Load() && expired[i].Load() {
			wantExpired++
			if c != 0 {
				t.Fatalf("soak: job %d resolved Expired but ran %d times", i, c)
			}
			continue
		}
		if c != 1 {
			t.Fatalf("soak: job %d ran %d times, want 1", i, c)
		}
	}

	st := d.Stats()
	if st.Duplicates != 0 {
		t.Fatalf("soak: %d duplicates", st.Duplicates)
	}
	if st.Performed != uint64(jobs) || st.Pending != 0 {
		t.Fatalf("soak: performed %d pending %d of %d", st.Performed, st.Pending, jobs)
	}
	if st.Expired != wantExpired {
		t.Fatalf("soak: Stats.Expired = %d, but %d jobs resolved Expired", st.Expired, wantExpired)
	}
	if st.Crashes == 0 {
		t.Fatal("soak: crash plan injected nothing")
	}
	if cfg.QueueDepth > 0 {
		for i, sh := range st.Shards {
			if sh.QueueDepth > cfg.QueueDepth {
				t.Fatalf("soak: shard %d queue depth %d exceeds bound %d", i, sh.QueueDepth, cfg.QueueDepth)
			}
		}
	}
	// Every async submission resolved exactly once. Callbacks fire before
	// Flush returns; futures hand off through a helper goroutine, so give
	// those stragglers a moment.
	waitFor(t, "all futures resolved", func() bool {
		for i := range resolutions {
			if isAsync[i].Load() && resolutions[i].Load() == 0 {
				return false
			}
		}
		return true
	})
	var accepted, completions int64
	for i := range resolutions {
		c := resolutions[i].Load()
		if isAsync[i].Load() && c != 1 {
			t.Fatalf("soak: async job index %d resolved %d times", i, c)
		}
		if !isAsync[i].Load() && c != 0 {
			t.Fatalf("soak: plain job index %d got %d resolutions", i, c)
		}
		if isAsync[i].Load() {
			accepted++
		}
		completions += int64(c)
	}
	if completions != accepted {
		t.Fatalf("soak: %d completions fired for %d accepted async jobs", completions, accepted)
	}
}
