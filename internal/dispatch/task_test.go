package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoBasics: one Task through Do carries its payload error to both
// the Handle's future and the callback, exactly once each.
func TestDoBasics(t *testing.T) {
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	boom := errors.New("boom")
	var cbErr atomic.Value
	h, err := d.Do(context.Background(), Task{
		Fn:       func(context.Context) error { return boom },
		Callback: func(r JobResult) { cbErr.Store(r.Err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID == 0 {
		t.Fatal("Handle.ID is 0; real ids start at 1")
	}
	select {
	case r := <-h.Done():
		if r.ID != h.ID || !errors.Is(r.Err, boom) || r.Expired || r.Recovered {
			t.Fatalf("future = %+v, want ID %d with Err boom", r, h.ID)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("future never resolved")
	}
	d.Flush() // the callback fires before the round publishes, so it has run by now
	if got, _ := cbErr.Load().(error); !errors.Is(got, boom) {
		t.Fatalf("callback saw Err %v, want boom", got)
	}
	select {
	case r := <-h.Done():
		t.Fatalf("future resolved twice: %+v", r)
	default:
	}

	if _, err := d.Do(context.Background(), Task{}); !errors.Is(err, ErrNilFn) {
		t.Fatalf("nil Fn: err = %v, want ErrNilFn", err)
	}
	if _, err := d.Do(context.Background(), Task{Fn: func(context.Context) error { return nil }, Priority: 7}); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

// TestDoBatchHandles: DoBatch hands back one Handle per Task with a
// contiguous id block, and every future resolves.
func TestDoBatchHandles(t *testing.T) {
	d, err := New(Config{Shards: 3, WorkersPerShard: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 100
	var ran atomic.Int64
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Fn: func(context.Context) error { ran.Add(1); return nil }}
	}
	hs, err := d.DoBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != n {
		t.Fatalf("%d handles, want %d", len(hs), n)
	}
	for i, h := range hs {
		if h.ID != hs[0].ID+uint64(i) {
			t.Fatalf("handle %d id %d; block not contiguous from %d", i, h.ID, hs[0].ID)
		}
		select {
		case r := <-h.Done():
			if r.ID != h.ID || r.Err != nil {
				t.Fatalf("handle %d resolved as %+v", i, r)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("handle %d never resolved", i)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d", got, n)
	}
}

// TestEmptyBatchSentinel: an empty batch consumes no job ids and never
// touches a shard (DoRunners' empty batch is in TestDoRunners).
func TestEmptyBatchSentinel(t *testing.T) {
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := 0; i < 3; i++ {
		hs, err := d.DoBatch(context.Background(), nil)
		if err != nil || hs != nil {
			t.Fatalf("DoBatch(nil) = (%v, %v), want (nil, nil)", hs, err)
		}
	}
	if st := d.Stats(); st.Submitted != 0 {
		t.Fatalf("empty batches counted %d submissions", st.Submitted)
	}
	for _, s := range d.shards {
		s.mu.Lock()
		l := s.q.len()
		s.mu.Unlock()
		if l != 0 {
			t.Fatalf("empty batch touched shard %d (queue %d)", s.id, l)
		}
	}
	// The very next real id is 1: the sentinel consumed nothing.
	h, err := d.Do(context.Background(), bare(func() {}))
	if err != nil || h.ID != 1 {
		t.Fatalf("first real submission got id %d (err %v), want 1", h.ID, err)
	}
}

// TestDoCtxCancelUnparks: a cancelled ctx releases a Block-policy
// submitter parked on a full queue, without consuming a job id.
func TestDoCtxCancelUnparks(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 2, QueueDepth: 2, SubmitPolicy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Saturate: QueueDepth bounds queued + in-flight, so two gated jobs
	// fill the shard.
	for i := 0; i < 2; i++ {
		if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() {
		_, err := d.Do(ctx, Task{Fn: func(context.Context) error { return nil }})
		returned <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park (cancel-before-park works too)
	cancel()
	select {
	case err := <-returned:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("unparked submitter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submitter still parked after ctx cancel")
	}
	// A ctx that is already dead is rejected up front, id unconsumed.
	if _, err := d.Do(ctx, Task{Fn: func(context.Context) error { return nil }}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-ctx Do returned %v", err)
	}
	// No id was burned: ids 1,2 went to the gated jobs, the next is 3.
	close(gate)
	d.Flush()
	h, err := d.Do(context.Background(), Task{Fn: func(context.Context) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 3 {
		t.Fatalf("post-cancel id %d, want 3 (cancellations must not burn ids)", h.ID)
	}
}

// TestCloseReleasesParkedSubmitters: Close must release Block-policy
// submitters parked on a full queue with ErrClosed — not a hang, not
// ErrQueueFull — without consuming their ids. Run under -race; the test
// races several parked submitters against Close.
func TestCloseReleasesParkedSubmitters(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 2, QueueDepth: 2, SubmitPolicy: Block})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
			t.Fatal(err)
		}
	}
	const parked = 4
	errs := make(chan error, parked)
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := d.Do(context.Background(), bare(func() {}))
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let them park (close-before-park is fine too)

	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	// The parked submitters must be released by Close itself, while the
	// gated round is still wedged — release the gate only afterwards.
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked submitter returned %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("submitter still parked after Close")
		}
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if st := d.Stats(); st.Submitted != 2 || st.Performed != 2 {
		t.Fatalf("released submitters consumed ids: submitted %d performed %d, want 2/2", st.Submitted, st.Performed)
	}
}

// TestDeadlineExpiry: a job whose deadline passes before its round is
// assembled is never started and resolves exactly once with Expired and
// Err = context.DeadlineExceeded — while still counting toward Flush and
// Stats conservation.
func TestDeadlineExpiry(t *testing.T) {
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var ran atomic.Int64
	var cbs atomic.Int64
	h, err := d.Do(context.Background(), Task{
		Fn:       func(context.Context) error { ran.Add(1); return nil },
		Deadline: time.Now().Add(-time.Millisecond), // already dead on arrival
		Callback: func(r JobResult) { cbs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-h.Done():
		if !r.Expired || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("result = %+v, want Expired with DeadlineExceeded", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("expired job never resolved")
	}
	d.Flush() // must return: expired jobs count as resolved
	if ran.Load() != 0 {
		t.Fatal("expired job's payload ran")
	}
	if got := cbs.Load(); got != 1 {
		t.Fatalf("expired job's callback fired %d times", got)
	}
	st := d.Stats()
	if st.Expired != 1 {
		t.Fatalf("Stats.Expired = %d, want 1", st.Expired)
	}
	if st.Pending != 0 || st.Performed != st.Submitted {
		t.Fatalf("conservation broken: %+v", st)
	}

	// A generous deadline runs normally and hands the payload a ctx
	// carrying that deadline.
	var sawDeadline atomic.Bool
	h2, err := d.Do(context.Background(), Task{
		Fn: func(ctx context.Context) error {
			_, ok := ctx.Deadline()
			sawDeadline.Store(ok)
			return nil
		},
		Deadline: time.Now().Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := <-h2.Done(); r.Expired || r.Err != nil {
		t.Fatalf("dated job resolved as %+v", r)
	}
	if !sawDeadline.Load() {
		t.Fatal("payload ctx did not carry the Task deadline")
	}
}

// TestPriorityInversion: a High-priority Task submitted behind a deep
// Low-priority backlog jumps the line — it completes while most of the
// backlog is still pending. With one ring for every class the High job
// would wait out the whole backlog.
func TestPriorityInversion(t *testing.T) {
	const backlog = 500
	gate := make(chan struct{})
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Wedge the first round so the whole backlog queues behind it.
	if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	tasks := make([]Task, backlog)
	for i := range tasks {
		tasks[i] = Task{Fn: func(context.Context) error { return nil }, Priority: Low}
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	pendingAtHigh := make(chan uint64, 1)
	_, err = d.Do(context.Background(), Task{
		Fn:       func(context.Context) error { return nil },
		Priority: High,
		Callback: func(JobResult) { pendingAtHigh <- d.Stats().Pending },
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	d.Flush()
	got := <-pendingAtHigh
	if got < backlog/2 {
		t.Fatalf("High job completed with only %d of %d jobs pending — it waited out the Low backlog", got, backlog)
	}
}

// TestLowRunsWhenHighIdle: strict priority must not starve Low once the
// higher classes go idle — a burst of High work delays Low, but after it
// drains the Low jobs all run.
func TestLowRunsWhenHighIdle(t *testing.T) {
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const low = 200
	var lowDone atomic.Int64
	for i := 0; i < low; i++ {
		if _, err := d.Do(context.Background(), Task{
			Fn:       func(context.Context) error { lowDone.Add(1); return nil },
			Priority: Low,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A competing stream of High work, then silence.
	for i := 0; i < 2000; i++ {
		if _, err := d.Do(context.Background(), Task{
			Fn:       func(context.Context) error { return nil },
			Priority: High,
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	if got := lowDone.Load(); got != low {
		t.Fatalf("only %d of %d Low jobs ran after High went idle", got, low)
	}
	if st := d.Stats(); st.Duplicates != 0 {
		t.Fatalf("%d duplicates", st.Duplicates)
	}
}

// TestFlushContext: a deadline-capable Flush returns ctx.Err when the
// drain outlasts the ctx, and nil once the dispatcher is drained.
func TestFlushContext(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := d.FlushContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FlushContext on a wedged dispatcher = %v, want DeadlineExceeded", err)
	}
	close(gate)
	if err := d.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext after drain = %v", err)
	}
}

// recRunner is a Runner that records what happened to it.
type recRunner struct {
	err      error // what Run returns
	ran      atomic.Int32
	resolved atomic.Int32
	res      JobResult // the last Resolved's argument; read after Flush
}

func (r *recRunner) Run(context.Context) error { r.ran.Add(1); return r.err }
func (r *recRunner) Resolved(res JobResult)    { r.res = res; r.resolved.Add(1) }

// TestDoRunners: runners submitted only through DoRunners are numbered
// 1, 2, 3, … in submission order however the stream is cut into batches;
// each runs once and hears Resolved once; Run's error stays with the
// Runner; a deadline in the past resolves Expired without running; a nil
// Runner or an unknown priority rejects the whole batch with nothing
// consumed; the empty batch is (0, nil).
func TestDoRunners(t *testing.T) {
	d, err := New(Config{Shards: 3, WorkersPerShard: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if first, err := d.DoRunners(context.Background(), nil); first != 0 || err != nil {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", first, err)
	}
	rs := make([]*recRunner, 100)
	tasks := make([]RunnerTask, 0, len(rs)) // one slice, reused for every batch
	next := uint64(1)
	for lo, cut := 0, 1; lo < len(rs); cut = cut*2 + 1 {
		hi := min(lo+cut, len(rs))
		tasks = tasks[:0]
		for i := lo; i < hi; i++ {
			rs[i] = &recRunner{}
			tasks = append(tasks, RunnerTask{Runner: rs[i], Priority: Priority(i%3 - 1)})
		}
		if lo == 0 {
			bad := []RunnerTask{tasks[0], {}}
			if _, err := d.DoRunners(context.Background(), bad); err == nil {
				t.Fatal("a nil Runner was accepted")
			}
			bad[1] = RunnerTask{Runner: rs[0], Priority: 9}
			if _, err := d.DoRunners(context.Background(), bad); err == nil {
				t.Fatal("an unknown priority was accepted")
			}
		}
		first, err := d.DoRunners(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if first != next {
			t.Fatalf("batch [%d,%d) got first id %d, want %d (rejected batches must burn nothing)", lo, hi, first, next)
		}
		next += uint64(hi - lo)
		lo = hi
	}
	failing := &recRunner{err: errors.New("kept by the runner")}
	late := &recRunner{}
	first, err := d.DoRunners(context.Background(), []RunnerTask{
		{Runner: failing}, {Runner: late, Deadline: time.Now().Add(-time.Second).UnixNano()},
	})
	if err != nil || first != next {
		t.Fatalf("last batch = (%d, %v), want first id %d", first, err, next)
	}
	d.Flush()
	for i, r := range rs {
		if r.ran.Load() != 1 || r.resolved.Load() != 1 || r.res.ID != uint64(i+1) || r.res.Err != nil {
			t.Fatalf("runner %d: ran %d, resolved %d with %+v; want once each, id %d", i, r.ran.Load(), r.resolved.Load(), r.res, i+1)
		}
	}
	if failing.ran.Load() != 1 || failing.resolved.Load() != 1 || failing.res.Err != nil {
		t.Fatalf("failing runner: ran %d, resolved %d with %+v; its error is its own to keep", failing.ran.Load(), failing.resolved.Load(), failing.res)
	}
	if late.ran.Load() != 0 || late.resolved.Load() != 1 || !late.res.Expired || !errors.Is(late.res.Err, context.DeadlineExceeded) {
		t.Fatalf("expired runner: ran %d, resolved %d with %+v", late.ran.Load(), late.resolved.Load(), late.res)
	}
}

// TestPayloadErrorSeam: the core drops Run's error, so who repeats it is
// the Runner's business — a DoBatch future merges its Fn's error into
// the JobResult its Handle and Callback see, each future its own, while
// a caller-owned Runner in the same rounds is told Err == nil.
func TestPayloadErrorSeam(t *testing.T) {
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 20
	errs := make([]error, n)
	cbErrs := make([]error, n)
	tasks := make([]Task, n)
	for i := range tasks {
		if i%2 == 1 {
			errs[i] = fmt.Errorf("task %d failed", i)
		}
		tasks[i] = Task{
			Fn:       func(context.Context) error { return errs[i] },
			Callback: func(r JobResult) { cbErrs[i] = r.Err },
		}
	}
	hs, err := d.DoBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	failing := &recRunner{err: errors.New("kept by the runner")}
	if _, err := d.DoRunners(context.Background(), []RunnerTask{{Runner: failing}}); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	for i, h := range hs {
		if r := <-h.Done(); r.ID != h.ID || r.Err != errs[i] || cbErrs[i] != errs[i] {
			t.Fatalf("task %d: future %+v, callback Err %v, want Err %v", i, r, cbErrs[i], errs[i])
		}
	}
	if failing.ran.Load() != 1 || failing.resolved.Load() != 1 || failing.res.Err != nil {
		t.Fatalf("failing runner: ran %d, resolved %d with %+v; want Err nil", failing.ran.Load(), failing.resolved.Load(), failing.res)
	}
}

// TestDoRunnersRecovered: after a clean close, the same runners
// re-submitted in different batch cuts get the same ids and every one
// resolves Recovered inside the DoRunners call, without running.
func TestDoRunnersRecovered(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	cfg := Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 16, MaxJobs: 64, JournalBatch: 4, newMem: mmapFactory(dir)}
	const n = 40
	submit := func(d *Dispatcher, cut int) []*recRunner {
		rs := make([]*recRunner, n)
		var tasks []RunnerTask
		for lo := 0; lo < n; lo += cut {
			tasks = tasks[:0]
			for i := lo; i < min(lo+cut, n); i++ {
				rs[i] = &recRunner{}
				tasks = append(tasks, RunnerTask{Runner: rs[i]})
			}
			if first, err := d.DoRunners(context.Background(), tasks); err != nil || first != uint64(lo+1) {
				t.Fatalf("batch at %d = (%d, %v)", lo, first, err)
			}
		}
		return rs
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit(d1, 7)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i, r := range submit(d2, 16) { // no Flush: recovered jobs resolve before DoRunners returns
		if r.ran.Load() != 0 || r.resolved.Load() != 1 || !r.res.Recovered || r.res.ID != uint64(i+1) {
			t.Fatalf("runner %d after reopen: ran %d, resolved %d with %+v", i, r.ran.Load(), r.resolved.Load(), r.res)
		}
	}
}
