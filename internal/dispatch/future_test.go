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

func okFn(context.Context) error { return nil }

// parkLoop wedges a one-shard dispatcher's loop inside a round, so that
// everything submitted until release() stays queued and is assembled
// together.
func parkLoop(t *testing.T, d *Dispatcher) (release func()) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	if _, err := d.Do(context.Background(), bare(func() { close(started); <-gate })); err != nil {
		t.Fatal(err)
	}
	<-started
	return func() { close(gate) }
}

// drained asserts a future's channel holds nothing (more).
func drained(t *testing.T, what string, ch <-chan JobResult) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s: a second result arrived: %+v", what, r)
	default:
	}
}

// TestFutureDoneAnyTime: Done returns one never-closed 1-buffered channel
// per job — the same on every call and every copy of the Handle — whether
// it is first asked for before, after or while the job resolves, and that
// channel carries exactly one JobResult.
func TestFutureDoneAnyTime(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	boom := errors.New("boom")

	// Before: the channel exists while the job is still queued.
	release := parkLoop(t, d)
	h, err := d.Do(ctx, Task{Fn: func(context.Context) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	before := h.Done()
	drained(t, "queued job", before)
	release()
	if r := <-before; r.ID != h.ID || !errors.Is(r.Err, boom) {
		t.Fatalf("result %+v, want id %d with Err boom", r, h.ID)
	}
	if h.Done() != before {
		t.Fatal("Done returned a different channel after resolution")
	}
	drained(t, "asked before", before)

	// After: a Handle first read long after the job resolved.
	h, err = d.Do(ctx, Task{Fn: func(context.Context) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	d.Flush()
	after := h.Done()
	select {
	case r := <-after:
		if r.ID != h.ID || !errors.Is(r.Err, boom) {
			t.Fatalf("late result %+v, want id %d with Err boom", r, h.ID)
		}
	default:
		t.Fatal("Done on a resolved job returned an empty channel")
	}
	cp := h
	if cp.Done() != after {
		t.Fatal("a copy of the Handle returned a different channel")
	}
	drained(t, "asked after", after)

	// During: copies of one Handle ask from many goroutines while the
	// round that resolves the job is running. One channel, one value.
	const readers = 16
	for round := 0; round < 200; round++ {
		h, err := d.Do(ctx, Task{Fn: okFn})
		if err != nil {
			t.Fatal(err)
		}
		chans := make([]<-chan JobResult, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int, h Handle) {
				defer wg.Done()
				chans[g] = h.Done()
			}(g, h)
		}
		wg.Wait()
		for g := 1; g < readers; g++ {
			if chans[g] != chans[0] {
				t.Fatalf("round %d: goroutines %d and 0 got different channels", round, g)
			}
		}
		if r := <-chans[0]; r.ID != h.ID {
			t.Fatalf("round %d: result id %d, want %d", round, r.ID, h.ID)
		}
		d.Flush()
		drained(t, "asked concurrently", chans[0])
	}

	if (Handle{}).Done() != nil {
		t.Fatal("the zero Handle has a channel")
	}
}

// TestCallbackSeesFutureAndReenters: by the time a job's callback runs,
// its result is readable through Done — also when Done is first called
// from inside that very callback — and the callback may submit again
// through Do, on the goroutine that is firing the round.
func TestCallbackSeesFutureAndReenters(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	var outer atomic.Pointer[Handle]
	published := make(chan struct{}) // outer is set: the payload may finish
	var inner Handle
	innerDone := make(chan JobResult, 1)
	problems := make(chan string, 4)
	h, err := d.Do(ctx, Task{
		Fn: func(context.Context) error { <-published; return nil },
		Callback: func(r JobResult) {
			select {
			case got := <-outer.Load().Done():
				if got != r {
					problems <- "Done inside the callback delivered a different result"
				}
			default:
				problems <- "result not readable through Done when the callback ran"
			}
			var err error
			inner, err = d.Do(ctx, Task{Fn: okFn, Callback: func(r JobResult) { innerDone <- r }})
			if err != nil {
				problems <- "Do from a callback: " + err.Error()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	outer.Store(&h)
	close(published)
	select {
	case r := <-innerDone:
		// inner was written by the outer callback, on the loop goroutine
		// that later ran the inner one.
		if r.ID != inner.ID || r.ID == h.ID {
			t.Fatalf("nested job resolved as %+v, handle id %d, outer id %d", r, inner.ID, h.ID)
		}
		if got := <-inner.Done(); got != r {
			t.Fatalf("nested future %+v, callback saw %+v", got, r)
		}
	case p := <-problems:
		t.Fatal(p)
	case <-time.After(20 * time.Second):
		t.Fatal("nested job never resolved")
	}
	select {
	case p := <-problems:
		t.Fatal(p)
	default:
	}
}

// onceBoth tracks jobs that must each resolve exactly once through the
// callback AND through the future.
type onceBoth struct {
	cbs     []atomic.Int32
	results []atomic.Pointer[JobResult]
	handles []Handle
}

func newOnceBoth(n int) *onceBoth {
	return &onceBoth{cbs: make([]atomic.Int32, n), results: make([]atomic.Pointer[JobResult], n), handles: make([]Handle, n)}
}

func (o *onceBoth) callback(i int) func(JobResult) {
	return func(r JobResult) {
		o.cbs[i].Add(1)
		o.results[i].Store(&r)
	}
}

// verify runs after Flush: every callback has fired, so every future
// must already hold the same result, and only that one.
func (o *onceBoth) verify(t *testing.T, want func(JobResult) bool) {
	t.Helper()
	for i, h := range o.handles {
		if c := o.cbs[i].Load(); c != 1 {
			t.Fatalf("job %d (id %d): callback fired %d times", i, h.ID, c)
		}
		cb := *o.results[i].Load()
		select {
		case r := <-h.Done():
			if r != cb || r.ID != h.ID {
				t.Fatalf("job %d (id %d): future %+v, callback %+v", i, h.ID, r, cb)
			}
			if !want(r) {
				t.Fatalf("job %d (id %d): unexpected result %+v", i, h.ID, r)
			}
		default:
			t.Fatalf("job %d (id %d): callback fired but the future is empty", i, h.ID)
		}
		drained(t, "after Flush", h.Done())
	}
}

// TestExactlyOnceBothWays: whatever happens to a job between Do and its
// resolution — deadline expiry, ctx cancellation, a steal by another
// shard, a crashed worker sending it round again as residue — its
// completion travels with it and fires exactly once, through the callback
// and through the future.
func TestExactlyOnceBothWays(t *testing.T) {
	ctx := context.Background()

	t.Run("expired", func(t *testing.T) {
		d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		const jobs = 20
		o := newOnceBoth(jobs)
		release := parkLoop(t, d)
		for i := range o.handles {
			if o.handles[i], err = d.Do(ctx, Task{
				Fn:       func(context.Context) error { t.Error("expired payload ran"); return nil },
				Deadline: time.Now().Add(-time.Millisecond),
				Callback: o.callback(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		release()
		d.Flush()
		o.verify(t, func(r JobResult) bool { return r.Expired && errors.Is(r.Err, context.DeadlineExceeded) })
		if st := d.Stats(); st.Expired != jobs {
			t.Fatalf("Stats.Expired = %d, want %d", st.Expired, jobs)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		const jobs = 20
		o := newOnceBoth(jobs)
		release := parkLoop(t, d)
		cctx, cancel := context.WithCancel(ctx)
		for i := range o.handles {
			if o.handles[i], err = d.Do(cctx, Task{
				Fn:       func(context.Context) error { t.Error("cancelled payload ran"); return nil },
				Callback: o.callback(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		cancel()
		release()
		d.Flush()
		o.verify(t, func(r JobResult) bool { return r.Cancelled && r.Err == context.Canceled })
		if st := d.Stats(); st.Cancelled != jobs {
			t.Fatalf("Stats.Cancelled = %d, want %d", st.Cancelled, jobs)
		}
	})

	t.Run("stolen", func(t *testing.T) {
		// The skew of TestWorkStealing: round-robin placement puts every
		// slow payload on one shard, the other goes idle and steals.
		d, err := New(Config{Shards: 2, Workers: 2, MaxBatch: 256, RoundTarget: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		gate := make(chan struct{})
		for i := 0; i < 2; i++ {
			if _, err := d.Do(context.Background(), bare(func() { <-gate })); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
		const jobs = 300
		eo := newExactlyOnce(jobs)
		o := newOnceBoth(jobs)
		for i := range o.handles {
			job, slow := eo.job(i), i%2 == 0
			if o.handles[i], err = d.Do(ctx, Task{
				Fn: func(ctx context.Context) error {
					if slow {
						time.Sleep(time.Millisecond)
					}
					return job.Fn(ctx)
				},
				Callback: o.callback(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		close(gate)
		d.Flush()
		eo.verify(t)
		o.verify(t, func(r JobResult) bool { return r == JobResult{ID: r.ID} })
		if st := d.Stats(); st.StolenJobs == 0 {
			t.Fatalf("nothing was stolen: %+v", st)
		}
	})

	t.Run("requeued", func(t *testing.T) {
		d, err := New(Config{
			Shards: 2, Workers: 2, MaxBatch: 32, Seed: 12,
			CrashPlan: everyRounds(10, func(shard, round int) []uint64 {
				return []uint64{0, uint64(25 + 9*round)}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		const jobs = 2000
		eo := newExactlyOnce(jobs)
		o := newOnceBoth(jobs)
		for i := range o.handles {
			job := eo.job(i)
			job.Callback = o.callback(i)
			if o.handles[i], err = d.Do(ctx, job); err != nil {
				t.Fatal(err)
			}
		}
		d.Flush()
		eo.verify(t)
		o.verify(t, func(r JobResult) bool { return r == JobResult{ID: r.ID} })
		if st := d.Stats(); st.Crashes == 0 || st.Residue == 0 {
			t.Fatalf("fault injection inert: crashes=%d residue=%d", st.Crashes, st.Residue)
		}
	})
}

// TestDoBatchStraddlesRecoveryHorizon: a DoBatch whose first half a
// previous incarnation already performed. Those jobs resolve Recovered
// on the submitting goroutine, before DoBatch returns and without their
// payloads; the second half runs; and every one of them is delivered
// exactly once through its callback and through a future first read
// after the fact.
func TestDoBatchStraddlesRecoveryHorizon(t *testing.T) {
	requireMmap(t)
	const n, half = 200, 100
	dir := t.TempDir()
	cfg := Config{Shards: 2, Workers: 2, MaxBatch: 32, NewMem: mmapFactory(dir), MaxJobs: n}
	runs := make([]atomic.Int32, n)
	tasks := func(o *onceBoth, k int) []Task {
		ts := make([]Task, k)
		for i := range ts {
			ts[i] = Task{Fn: func(context.Context) error { runs[i].Add(1); return nil }, Callback: o.callback(i)}
		}
		return ts
	}

	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o1 := newOnceBoth(half)
	if o1.handles, err = d1.DoBatch(context.Background(), tasks(o1, half)); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	o1.verify(t, func(r JobResult) bool { return r == JobResult{ID: r.ID} })
	d1.abandon()

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	o2 := newOnceBoth(n)
	if o2.handles, err = d2.DoBatch(context.Background(), tasks(o2, n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < half; i++ {
		if o2.cbs[i].Load() != 1 {
			t.Fatalf("recovered job %d: callback had not fired when DoBatch returned", i)
		}
	}
	d2.Flush()
	for i, h := range o2.handles {
		if h.ID != uint64(i+1) {
			t.Fatalf("handle %d has id %d, want %d", i, h.ID, i+1)
		}
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times across the two incarnations", i, c)
		}
	}
	o2.verify(t, func(r JobResult) bool { return r.Recovered == (r.ID <= half) && r.Err == nil })
	if st := d2.Stats(); st.Recovered != half || st.Duplicates != 0 {
		t.Fatalf("Stats.Recovered = %d (want %d), Duplicates = %d", st.Recovered, half, st.Duplicates)
	}
}

// submitTracked sends n jobs whose payloads, callbacks and errors all
// reference one finalizer-tracked object, and returns without keeping
// any of them.
//
//go:noinline
func submitTracked(t *testing.T, d *Dispatcher, n int, deadline time.Time, collected *atomic.Bool) {
	type big struct{ _ [1 << 16]byte }
	obj := new(big)
	runtime.SetFinalizer(obj, func(*big) { collected.Store(true) })
	for i := 0; i < n; i++ {
		if i%2 == 0 && deadline.IsZero() {
			if _, err := d.Do(context.Background(), bare(func() { runtime.KeepAlive(obj) })); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := d.Do(context.Background(), Task{
			Fn:       func(context.Context) error { return trackedErr{obj} },
			Deadline: deadline,
			Callback: func(JobResult) { runtime.KeepAlive(obj) },
		}); err != nil {
			t.Fatal(err)
		}
	}
}

type trackedErr struct{ p any }

func (trackedErr) Error() string { return "tracked" }

// TestIdleShardPinsNothing: once its jobs have resolved and the traffic
// has stopped, an open dispatcher must not keep the last round's payload
// closures, futures, callbacks or errors reachable — neither through the
// batch buffer nor through the round-assembly scratch.
func TestIdleShardPinsNothing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Time
	}{
		{"performed", time.Time{}},
		{"expired", time.Now().Add(-time.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			var collected atomic.Bool
			submitTracked(t, d, 40, tc.deadline, &collected)
			d.Flush()
			// Two collections suffice to find the object dead; the loop
			// gives the finalizer goroutine time to say so.
			for i := 0; i < 100 && !collected.Load(); i++ {
				runtime.GC()
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if !collected.Load() {
				t.Fatal("an idle dispatcher still references its last jobs")
			}
		})
	}
}

// gcUntil collects until cond holds — two collections empty a sync.Pool
// and find an object dead; the loop gives the finalizer goroutine time to
// say so — and reports whether it came to hold.
func gcUntil(cond func() bool) bool {
	for i := 0; i < 100 && !cond(); i++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// slabErr is the error job i of goroutine g returns: comparable, so a
// result that reached a slab-mate's future is told apart.
type slabErr struct{ g, i int }

func (slabErr) Error() string { return "slab" }

// TestFutureSlabIsolation: futures carved from shared slabs by concurrent
// submitters are distinct objects, and each delivers its own id and its
// own payload's error exactly once — through the callback and through a
// channel asked for before or after the job resolved.
func TestFutureSlabIsolation(t *testing.T) {
	d, err := New(Config{Shards: 2, Workers: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const producers, each = 8, 5000
	sets := make([]*onceBoth, producers)
	var wg sync.WaitGroup
	for g := range sets {
		o := newOnceBoth(each)
		sets[g] = o
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range o.handles {
				h, err := d.Do(context.Background(), Task{
					Fn:       func(context.Context) error { return slabErr{g, i} },
					Callback: o.callback(i),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					h.Done() // asked for while queued or running
				}
				o.handles[i] = h
			}
		}()
	}
	wg.Wait()
	d.Flush()
	if t.Failed() {
		return
	}
	seen := make(map[*future]uint64, producers*each)
	for g, o := range sets {
		o.verify(t, func(JobResult) bool { return true })
		for i, h := range o.handles {
			if r := o.results[i].Load(); r.Err != (slabErr{g, i}) {
				t.Fatalf("producer %d job %d (id %d) resolved with %v", g, i, h.ID, r.Err)
			}
			if other, dup := seen[h.f]; dup {
				t.Fatalf("jobs %d and %d share the future at %p", other, h.ID, h.f)
			}
			seen[h.f] = h.ID
		}
	}
}

// finErr is an error the collector reports the death of.
type finErr struct {
	id   int
	dead *atomic.Int32
}

func (*finErr) Error() string { return "tracked" }

func newFinErr(id int, dead *atomic.Int32) *finErr {
	e := &finErr{id: id, dead: dead}
	runtime.SetFinalizer(e, func(e *finErr) { e.dead.Add(1) })
	return e
}

// submitFinErrs sends n jobs that each fail with their own finErr and
// returns the Handle of job keep alone.
//
//go:noinline
func submitFinErrs(t *testing.T, d *Dispatcher, n, keep int, dead *atomic.Int32) (kept Handle) {
	for i := 0; i < n; i++ {
		h, err := d.Do(context.Background(), Task{Fn: func(context.Context) error { return newFinErr(i, dead) }})
		if err != nil {
			t.Fatal(err)
		}
		if i == keep {
			kept = h
		}
	}
	return kept
}

// TestRetainedHandlePinsOneSlab: a Handle kept after its job resolved
// keeps its own slab's results reachable and no other's, and still reads
// its own.
func TestRetainedHandlePinsOneSlab(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const jobs, keep = 4096, 2000
	var dead atomic.Int32
	kept := submitFinErrs(t, d, jobs, keep, &dead)
	d.Flush()
	if !gcUntil(func() bool { return dead.Load() >= jobs-slabFutures }) {
		t.Fatalf("one retained Handle keeps %d of %d results reachable (want ≤ %d)", jobs-dead.Load(), jobs, slabFutures)
	}
	r := <-kept.Done()
	if e, ok := r.Err.(*finErr); r.ID != kept.ID || !ok || e.id != keep {
		t.Fatalf("the retained Handle reads %+v, want id %d failing with job %d's error", r, kept.ID, keep)
	}
}

// refuseTracked makes n Dos that d must refuse with want, every Fn and
// Callback closing over one finalizer-tracked object, and keeps none.
//
//go:noinline
func refuseTracked(t *testing.T, d *Dispatcher, ctx context.Context, n int, want error, collected *atomic.Bool) {
	type big struct{ _ [1 << 16]byte }
	obj := new(big)
	runtime.SetFinalizer(obj, func(*big) { collected.Store(true) })
	for i := 0; i < n; i++ {
		if _, err := d.Do(ctx, Task{
			Fn:       func(context.Context) error { runtime.KeepAlive(obj); return nil },
			Callback: func(JobResult) { runtime.KeepAlive(obj) },
		}); !errors.Is(err, want) {
			t.Fatalf("refused Do %d = %v, want %v", i, err, want)
		}
	}
}

// TestRejectedDoPinsNothing: a Do the dispatcher refuses after carving a
// future spends the slot and nothing more — the slab it shares with a job
// still pending, or with a retained Handle, does not keep the refused
// Task's closures reachable — and a Do that fails validation carves none.
// On one P, so that the refused futures do come off the pinned slab.
func TestRejectedDoPinsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		cfg  Config
		ctx  context.Context
		want error
	}{
		{"queue full", Config{Shards: 1, Workers: 2, QueueDepth: 1, Policy: FailFast}, context.Background(), ErrQueueFull},
		{"closed", Config{Shards: 1, Workers: 2}, context.Background(), ErrClosed},
		{"dead ctx", Config{Shards: 1, Workers: 2}, cancelled, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			// The job whose future pins the slab the refused ones are carved
			// from: blocked in its round where the queue must stay full,
			// resolved and its Handle retained otherwise.
			started, gate := make(chan struct{}), make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			defer release() // before Close, which waits for the job
			pin, err := d.Do(context.Background(), bare(func() { close(started); <-gate }))
			if err != nil {
				t.Fatal(err)
			}
			<-started
			blocked := tc.want == ErrQueueFull
			if !blocked {
				release()
				d.Flush()
			}
			if tc.want == ErrClosed {
				d.Close()
			}
			var collected atomic.Bool
			refuseTracked(t, d, tc.ctx, 1000, tc.want, &collected)
			if !gcUntil(collected.Load) {
				t.Fatalf("Dos refused with %v are still referenced", tc.want)
			}
			if blocked {
				drained(t, "blocked job", pin.Done())
				release()
			}
			if r := <-pin.Done(); r.ID != pin.ID {
				t.Fatalf("the pinning job resolved as %+v, want id %d", r, pin.ID)
			}
		})
	}

	t.Run("invalid", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
		}
		d, err := New(Config{Shards: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		noFn := Task{Callback: func(JobResult) {}}
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < 10*slabFutures; i++ {
				if _, err := d.Do(context.Background(), noFn); err != ErrNilFn {
					t.Fatalf("Do without Fn = %v, want ErrNilFn", err)
				}
			}
		})
		if avg >= 1 {
			t.Errorf("%d invalid Dos allocate %.1f times: validation must come before the slot", 10*slabFutures, avg)
		}
	})
}
