package dispatch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitAsyncFutures: every future receives exactly one JobResult
// with the right id, even while crash injection forces jobs to ride
// residue across multiple rounds.
func TestSubmitAsyncFutures(t *testing.T) {
	const jobs = 4000
	d, err := New(Config{
		Shards:   2,
		Workers:  3,
		MaxBatch: 64,
		Jitter:   true,
		Seed:     11,
		CrashPlan: everyRounds(15, func(shard, round int) []uint64 {
			return []uint64{0, uint64(30 + 11*round + 5*shard), uint64(70 + 7*round)}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	eo := newExactlyOnce(jobs)
	handles := make([]Handle, jobs)
	for i := 0; i < jobs; i++ {
		if handles[i], err = d.Do(context.Background(), eo.job(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		ch := h.Done()
		select {
		case r := <-ch:
			if r.ID != h.ID {
				t.Fatalf("future %d: got id %d, want %d", i, r.ID, h.ID)
			}
			if r.Recovered {
				t.Fatalf("future %d: spurious Recovered", i)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("future %d never resolved", i)
		}
		select {
		case r := <-ch:
			t.Fatalf("future %d resolved twice: %+v", i, r)
		default:
		}
	}
	eo.verify(t)
	if st := d.Stats(); st.Crashes == 0 || st.Residue == 0 {
		t.Fatalf("fault injection inert: crashes=%d residue=%d", st.Crashes, st.Residue)
	}
}

// TestSubmitCallbackExactlyOnce: a Task.Callback fires exactly once per
// job under crash injection — as many completions as jobs accepted.
func TestSubmitCallbackExactlyOnce(t *testing.T) {
	const jobs = 3000
	d, err := New(Config{
		Shards:   3,
		Workers:  2,
		MaxBatch: 32,
		Seed:     12,
		CrashPlan: everyRounds(10, func(shard, round int) []uint64 {
			return []uint64{0, uint64(25 + 9*round)}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Track the issued ids (1..jobs) and assert each fired exactly once
	// (and nothing else fired at all).
	fired := make([]atomic.Int32, jobs+1)
	issued := make([]uint64, 0, jobs)
	var wrong atomic.Int32
	var completions atomic.Int64
	for i := 0; i < jobs; i++ {
		var wantID atomic.Uint64
		h, err := d.Do(context.Background(), Task{
			Fn: func(context.Context) error { return nil },
			Callback: func(r JobResult) {
				if w := wantID.Load(); w != 0 && r.ID != w {
					wrong.Add(1)
				}
				fired[r.ID].Add(1)
				completions.Add(1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantID.Store(h.ID)
		issued = append(issued, h.ID)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	total := int32(0)
	for _, id := range issued {
		c := fired[id].Load()
		if c != 1 {
			t.Fatalf("callback for job %d fired %d times", id, c)
		}
		total += c
	}
	if total != jobs {
		t.Fatalf("%d callbacks fired for issued ids, want %d", total, jobs)
	}
	for id := range fired {
		if c := fired[id].Load(); c != 0 && !slicesContains(issued, uint64(id)) {
			t.Fatalf("callback fired for never-issued id %d", id)
		}
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d callbacks saw a mismatched id", wrong.Load())
	}
	if n := completions.Load(); n != int64(len(issued)) {
		t.Fatalf("%d completions fired for %d accepted jobs", n, len(issued))
	}
}

// slicesContains is a tiny helper (the test sticks to the stdlib the
// package already imports).
func slicesContains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestAsyncRecovery: futures must resolve for journal-recovered jobs. A
// durable dispatcher is frozen mid-round and abandoned; the successor
// re-submits the same stream async and every future resolves exactly
// once — the pre-crash ones with Recovered set, without re-running.
func TestAsyncRecovery(t *testing.T) {
	requireMmap(t)
	const (
		n       = 800
		workers = 4
		killAt  = 16
	)
	dir := t.TempDir()
	executions := make([]atomic.Int32, n+1)

	var performed, blocked atomic.Int64
	gate := make(chan struct{}) // never closed: d1's workers stay frozen
	d1, err := New(Config{
		Shards: 1, Workers: workers, MaxBatch: 128,
		NewMem: mmapFactory(dir), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() {
			executions[id].Add(1)
			if performed.Add(1) >= killAt {
				blocked.Add(1)
				<-gate
			}
		})
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all workers frozen mid-round", func() bool { return blocked.Load() == workers })
	preCrash := performed.Load()
	// d1 is abandoned without Close, like a killed process.

	d2, err := New(Config{
		Shards: 1, Workers: workers, MaxBatch: 128,
		NewMem: mmapFactory(dir), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan JobResult, n)
	for i := 0; i < n; i++ {
		id := i + 1
		h, err := d2.Do(context.Background(), bare(func() { executions[id].Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = h.Done()
	}
	d2.Flush()
	recovered := 0
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.ID != uint64(i+1) {
				t.Fatalf("future %d resolved with id %d", i, r.ID)
			}
			if r.Recovered {
				recovered++
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("future %d never resolved after recovery", i)
		}
	}
	st := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if recovered != int(preCrash) {
		t.Errorf("%d futures resolved as Recovered, want %d", recovered, preCrash)
	}
	if st.Recovered != uint64(preCrash) {
		t.Errorf("Stats.Recovered = %d, want %d", st.Recovered, preCrash)
	}
	for id := 1; id <= n; id++ {
		if c := executions[id].Load(); c > 1 {
			t.Fatalf("job %d executed %d times across the crash", id, c)
		}
	}
}

// TestBackpressureBlock: with a bounded queue and the Block policy, a
// producer overdriving slow payloads is throttled instead of growing
// memory — the queue never exceeds QueueDepth and each class ring fits
// one block, even while crash injection requeues residue at the front
// (in-flight jobs hold their slots until the round resolves), and a
// flushed dispatcher holds no block — and the blocked time is accounted.
func TestBackpressureBlock(t *testing.T) {
	const (
		depth = 16
		jobs  = 400
	)
	d, err := New(Config{
		Shards:     2,
		Workers:    2,
		MaxBatch:   8,
		QueueDepth: depth,
		Policy:     Block,
		CrashPlan: everyRounds(40, func(shard, round int) []uint64 {
			return []uint64{0, uint64(10 + 7*round)}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Sample queue depths and the blocks each class ring holds while the
	// producer runs.
	stop := make(chan struct{})
	var maxDepth, maxBlocks atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			for _, s := range d.shards {
				s.mu.Lock()
				if l := int64(s.q.len()); l > maxDepth.Load() {
					maxDepth.Store(l)
				}
				for i := range s.q.rings {
					if b := int64(len(s.q.rings[i].bl)); b > maxBlocks.Load() {
						maxBlocks.Store(b)
					}
				}
				s.mu.Unlock()
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	eo := newExactlyOnce(jobs)
	for i := 0; i < jobs; i++ {
		job := eo.job(i)
		slow := Task{Fn: func(ctx context.Context) error { time.Sleep(50 * time.Microsecond); return job.Fn(ctx) }}
		if i%3 == 0 {
			if _, err := d.Do(context.Background(), slow); err != nil {
				t.Fatal(err)
			}
		} else if _, err := d.DoBatch(context.Background(), []Task{slow}); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	close(stop)
	sampler.Wait()
	eo.verify(t)

	if got := maxDepth.Load(); got > depth {
		t.Errorf("queue depth reached %d, bound is %d", got, depth)
	}
	if got := maxBlocks.Load(); got > 1 {
		t.Errorf("a class ring held %d blocks, want ≤ 1 for QueueDepth %d", got, depth)
	}
	for _, s := range d.shards {
		s.mu.Lock()
		c := s.q.capCells()
		s.mu.Unlock()
		if c != 0 {
			t.Errorf("shard %d holds %d cells of blocks after Flush, want none", s.id, c)
		}
	}
	st := d.Stats()
	if st.SubmitBlockedNanos == 0 {
		t.Error("producer overdrove a depth-16 queue but SubmitBlockedNanos is 0")
	}
	if st.Residue == 0 {
		t.Error("crash plan produced no residue; the requeue-under-bound path went untested")
	}
}

// TestBackpressureFailFast: a full queue rejects with ErrQueueFull, no
// job id is consumed by a rejection (ids stay dense), and batches are
// all-or-nothing.
func TestBackpressureFailFast(t *testing.T) {
	const depth = 4
	gate := make(chan struct{})
	d, err := New(Config{
		Shards:     1,
		Workers:    2,
		MaxBatch:   2,
		QueueDepth: depth,
		Policy:     FailFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	blockJob := bare(func() { <-gate; ran.Add(1) })

	// Fill the queue (and the in-flight round) until a rejection.
	accepted := []uint64{}
	rejected := 0
	for len(accepted) < 64 && rejected == 0 {
		h, err := d.Do(context.Background(), blockJob)
		switch {
		case err == nil:
			accepted = append(accepted, h.ID)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Fatal("queue never filled; backpressure inert")
	}
	// Ids must be dense: rejections consumed nothing.
	for i, id := range accepted {
		if id != uint64(i+1) {
			t.Fatalf("accepted ids not dense: position %d has id %d", i, id)
		}
	}
	// A batch that cannot fit is rejected whole...
	oversized := make([]Task, depth+1)
	for i := range oversized {
		oversized[i] = blockJob
	}
	if _, err := d.DoBatch(context.Background(), oversized); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch: err = %v, want ErrQueueFull", err)
	}
	// ...and the next accepted submission continues the dense sequence.
	// (Retry: the queue drains asynchronously once the gate opens.)
	close(gate)
	var h Handle
	for {
		h, err = d.Do(context.Background(), bare(func() { ran.Add(1) }))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if want := uint64(len(accepted) + 1); h.ID != want {
		t.Fatalf("post-rejection id %d, want %d (rejections must not burn ids)", h.ID, want)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != int64(len(accepted)+1) {
		t.Fatalf("ran %d jobs, want %d", got, len(accepted)+1)
	}
}

// TestBatchRotation: batch-only workloads must rotate their start shard
// — the plan cursor advances per batch, so small batches reach every
// shard instead of piling onto one. With gated payloads and depth-2
// FailFast queues, a 2-shard dispatcher must accept ~4 one-job batches
// (2 resident per shard); a broken rotation pins one shard and caps
// acceptance at ~2.
func TestBatchRotation(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{
		Shards:     2,
		Workers:    2,
		MaxBatch:   2,
		QueueDepth: 2,
		Policy:     FailFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	block := []Task{bare(func() { <-gate })}
	accepted, rejected := 0, 0
	for rejected < 8 && accepted < 16 {
		if _, err := d.DoBatch(context.Background(), block); err == nil {
			accepted++
		} else if errors.Is(err, ErrQueueFull) {
			rejected++
		} else {
			t.Fatal(err)
		}
	}
	if accepted < 3 {
		t.Fatalf("only %d one-job batches accepted across 2 shards; rotation is pinning one shard", accepted)
	}
	close(gate)
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonReleasesBlockedSubmitter: abandon (the crash-simulation
// path) must not strand a Block-policy submitter parked on a full
// queue — the dead shard releases it and swallows the entries, like
// memory of a killed process.
func TestAbandonReleasesBlockedSubmitter(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d, err := New(Config{
		Shards:     1,
		Workers:    2,
		MaxBatch:   2,
		QueueDepth: 2,
		Policy:     Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: QueueDepth bounds queued + in-flight jobs, so two gated
	// submissions fill the shard completely.
	for i := 0; i < 2; i++ {
		if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
			t.Fatal(err)
		}
	}
	returned := make(chan error, 1)
	go func() {
		_, err := d.Do(context.Background(), bare(func() {}))
		returned <- err
	}()
	// Give the submitter time to park (abandon-before-park is fine too:
	// waitSpace checks abandoned before waiting). Shard-level abandon:
	// the dispatcher-level wrapper would wait for the gated round to
	// finish, which is not what a crash does to a parked submitter.
	time.Sleep(20 * time.Millisecond)
	d.shards[0].abandon()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("stranded submitter returned error %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submitter still parked after abandon")
	}
	// Cleanup: the gate's deferred close lets the gated round finish and
	// the abandoned loop exit; the dispatcher is unusable, as after any
	// abandon, and intentionally not Closed.
}

// TestWorkStealing: an idle shard must claim work from a deep sibling.
// Jobs are placed round-robin, so with 2 shards the even-indexed
// submissions land on one shard and get slow payloads while the other
// shard's jobs are instant: the fast shard goes idle and steals. All
// jobs still execute exactly once and futures all resolve.
func TestWorkStealing(t *testing.T) {
	const jobs = 300
	d, err := New(Config{
		Shards:   2,
		Workers:  2,
		MaxBatch: 256,
		// A tight latency target keeps the slow shard cutting small
		// rounds, so its queue stays deep between rounds — the window a
		// thief needs.
		RoundTarget: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Park both shard loops in a gated first round so the whole stream
	// queues up behind it; the gated round also seeds the controller with
	// a slow estimate, keeping the skewed shard's rounds small.
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)

	eo := newExactlyOnce(jobs)
	var resolved atomic.Int64
	for i := 0; i < jobs; i++ {
		job := eo.job(i)
		if i%2 == 0 {
			fast := job.Fn
			job.Fn = func(ctx context.Context) error { time.Sleep(time.Millisecond); return fast(ctx) }
		}
		job.Callback = func(JobResult) { resolved.Add(1) }
		if _, err := d.Do(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	d.Flush()
	eo.verify(t)
	st := d.Stats()
	if st.StolenJobs == 0 {
		t.Fatalf("no jobs were stolen despite a skewed load: %+v", st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("stealing broke at-most-once: %d duplicates", st.Duplicates)
	}
	waitFor(t, "all callbacks fired", func() bool { return resolved.Load() == jobs })
}

// TestAdaptiveRoundSizing: with slow payloads and a deep pre-loaded
// queue, the latency-targeted controller must cut rounds well below
// MaxBatch — and many more of them than the two MaxBatch-sized rounds
// the fixed cut would have used.
func TestAdaptiveRoundSizing(t *testing.T) {
	const jobs = 200
	gate := make(chan struct{})
	d, err := New(Config{
		Shards:      1,
		Workers:     2,
		MaxBatch:    128,
		RoundTarget: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Park the loop on a first gated round so the whole stream queues up.
	if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
		t.Fatal(err)
	}
	eo := newExactlyOnce(jobs)
	for i := 0; i < jobs; i++ {
		job := eo.job(i)
		if _, err := d.Do(context.Background(), Task{Fn: func(ctx context.Context) error { time.Sleep(time.Millisecond); return job.Fn(ctx) }}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	d.Flush()
	eo.verify(t)
	st := d.Stats()
	// At ~1ms per payload on 2 workers a 2ms target admits only a few
	// jobs per round; allow generous slack but rule out MaxBatch cuts.
	if st.Rounds < 10 {
		t.Fatalf("adaptive controller cut only %d rounds for %d slow jobs (fixed MaxBatch behavior)", st.Rounds, jobs)
	}
	if lb := st.Shards[0].LastBatch; lb >= 128 {
		t.Fatalf("last round took the full MaxBatch (%d) despite the latency target", lb)
	}
}
