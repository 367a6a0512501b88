package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Priority is a Task's scheduling class. Each shard keeps one ring per
// class and drains them strictly in priority order: a queued High job is
// always cut into a round before any queued Normal job, and Normal
// before Low. Within a class, order is FIFO (residue re-enters at the
// front of its own class). Strict ordering starves a lower class only
// while a higher one has work — an idle High ring costs Low nothing.
type Priority int8

const (
	// Normal is the default (zero-value) class.
	Normal Priority = 0
	// High jobs jump every queued Normal and Low job.
	High Priority = 1
	// Low jobs run only when no High or Normal work is queued — bulk or
	// best-effort background work.
	Low Priority = -1
)

// valid reports whether p is one of the three defined classes.
func (p Priority) valid() bool { return p == Normal || p == High || p == Low }

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Low:
		return "low"
	case Normal:
		return "normal"
	default:
		return fmt.Sprintf("Priority(%d)", int8(p))
	}
}

// Task is the job descriptor Do and DoBatch accept: one payload plus
// its scheduling contract.
type Task struct {
	// Fn is the payload, invoked at most once from a shard worker. The
	// context carries the Task's Deadline when one is set (Background
	// otherwise); the returned error does not affect at-most-once
	// accounting — the job counts performed either way — and is delivered
	// verbatim in the JobResult's Err.
	Fn func(context.Context) error
	// Deadline, when non-zero, bounds how long the job may wait in the
	// queue: expiry is decided at round-assembly time, so a job whose
	// deadline has passed when its shard cuts the next round is NEVER
	// started and resolves exactly once with Expired set and
	// Err = context.DeadlineExceeded. A job whose round has already
	// started always runs and counts as performed (at-most-once is
	// untouched: expiry can only turn "run once" into "run zero times").
	// A queued job due within the shard's promotion window is pulled
	// ahead of its class in deadline order so it gets its chance to run;
	// and when a class holds deadlined jobs but cannot be drained whole
	// in one round, the deadlined jobs lead the class earliest-first
	// (EDF), so of two same-priority deadlined jobs the earlier deadline
	// never runs in a later round.
	Deadline time.Time
	// Priority selects the scheduling class; the zero value is Normal.
	Priority Priority
	// Callback, when non-nil, is invoked exactly once with the job's
	// JobResult, once the result is readable through the Handle's Done
	// channel. It runs on the performing shard's loop goroutine (keep it
	// fast; do not call the dispatcher's blocking methods from it) — or
	// synchronously on the submitting goroutine for journal-recovered
	// jobs.
	Callback func(JobResult)
}

// Handle identifies an accepted Task: its dispatcher-wide id and its
// completion future. Copies of a Handle share one future. Futures are
// carved 64 to a slab (a DoBatch's from one slice), so a retained Handle
// keeps its slab-mates' JobResults — an error each — reachable with its
// own.
type Handle struct {
	// ID is the job's dispatcher-wide id. Ids are 1, 2, 3, … in
	// acceptance order across Do, DoBatch and DoRunners, so a fixed
	// submission order always reproduces the same ids.
	ID uint64

	f *future
}

// Done returns the job's completion future: a 1-buffered channel that
// receives exactly one JobResult — when the payload has returned (Err
// carrying its error), when the deadline expired before the round
// started (Expired set), or immediately for journal-recovered jobs
// (Recovered set). The channel is never closed, and every call on every
// copy of the Handle returns the same one, whether the job has resolved
// yet or not. It is made on the first call, so a caller that only set
// Task.Callback never pays for it.
func (h Handle) Done() <-chan JobResult {
	f := h.f
	if f == nil {
		return nil // the zero Handle
	}
	f.mu.Lock()
	if f.ch == nil {
		f.ch = make(chan JobResult, 1)
		if f.done {
			f.ch <- f.res
		}
	}
	ch := f.ch
	f.mu.Unlock()
	return ch
}

// future is what a Do costs, and the Runner its entry carries: the
// Task's payload and callback until the job resolves, its result
// afterwards, and the channel Done hands out once somebody asks. A Do's is
// carved from a futureSlab and a DoBatch's from the call's one slice; it
// is handed out once and never again — a Handle may be read arbitrarily
// late — and lives as long as the longest-lived future carved with it.
type future struct {
	mu sync.Mutex
	ch chan JobResult // made by the first Done call
	// fn and cb are Task.Fn and Task.Callback, written before the entry is
	// enqueued and read only by whoever holds it; dropped at resolution.
	fn func(context.Context) error
	cb func(JobResult)
	// res is the job's result, valid once done is set (under mu). Before
	// that, Run parks the payload's error in res.Err — ordered before
	// Resolved by the round's join, and unread by Done until done is set.
	res  JobResult
	done bool
}

// Run is the Runner's payload: Task.Fn, its error kept for Resolved.
func (f *future) Run(ctx context.Context) error {
	f.res.Err = f.fn(ctx)
	return f.res.Err
}

// Resolved publishes the job's result — the payload's error merged in,
// which a performed job's JobResult arrives without — and then runs the
// callback, so the result is readable through Handle.Done by the time
// the callback sees it. Exactly one call per future, on the goroutine
// that resolves the job.
func (f *future) Resolved(r JobResult) {
	if r.Err == nil {
		r.Err = f.res.Err
	}
	cb := f.cb
	f.mu.Lock()
	f.res, f.done, f.fn, f.cb = r, true, nil, nil
	if f.ch != nil {
		f.ch <- r // 1-buffered and this is the only send: never blocks
	}
	f.mu.Unlock()
	if cb != nil {
		cb(r)
	}
}

// slabFutures futures share one allocation and one lifetime (the 64 of
// jobd's jobSlab); n is the next unused one.
const slabFutures = 64

type futureSlab struct {
	futs [slabFutures]future
	n    int
}

// futureSlabs holds the partly used slabs, and nothing else does. The
// pool is per-P, so concurrent submitters carve from different slabs
// without a lock, and the collector empties it, so an idle dispatcher pins
// none: a slab kept on the shard would keep up to 63 resolved jobs' errors
// reachable, and the future must exist before do has picked the shard.
var futureSlabs = sync.Pool{New: func() any { return new(futureSlab) }}

// newFuture carves a future; the slab goes back unless that was its last.
func newFuture() *future {
	s := futureSlabs.Get().(*futureSlab)
	f := &s.futs[s.n]
	if s.n++; s.n < slabFutures {
		futureSlabs.Put(s)
	}
	return f
}

// ErrNilFn is returned by Do and DoBatch for a Task without a payload.
var ErrNilFn = errors.New("dispatch: Task.Fn is nil")

// check validates a Task, before anything is made for it.
func (t *Task) check() error {
	if t.Fn == nil {
		return ErrNilFn
	}
	if !t.Priority.valid() {
		return fmt.Errorf("dispatch: unknown Priority(%d)", int8(t.Priority))
	}
	return nil
}

// entryOf binds a checked Task to f, the future that runs it and hears
// its result; the entry carries f as its Runner.
func entryOf(t *Task, f *future) entry {
	var dl int64
	if !t.Deadline.IsZero() {
		if dl = t.Deadline.UnixNano(); dl == 0 {
			// The Unix epoch is a real (long-past) deadline, but its
			// nanosecond value collides with the no-deadline sentinel;
			// nudge it so the job still expires.
			dl = -1
		}
	}
	f.fn, f.cb = t.Fn, t.Callback
	return entry{run: f, dl: dl, pri: t.Priority}
}

// Do submits one Task and returns its Handle. The job will be executed
// at most once, and — as long as the dispatcher keeps running rounds —
// exactly once. With a bounded queue (Config.QueueDepth) and the target
// shard saturated, Do blocks until space frees (Block) or fails with
// ErrQueueFull (FailFast). ctx governs ADMISSION: a cancelled or expired
// ctx releases a Block-policy submitter parked on a full queue — and a
// concurrent Close releases it with ErrClosed — and like a FailFast
// rejection neither consumes a job id, so id assignment stays dense for
// deterministic re-submission. Once Do returns nil, the Task is
// accepted and will resolve exactly once; a ctx that dies while the
// Task is still QUEUED resolves it with Cancelled set and ctx's error
// at the shard's next round assembly — the cooperative cancellation
// fast-path, mirroring deadline expiry: decided before the job is
// started, so the payload never runs. A Task whose round has already
// been cut runs to completion regardless of ctx (at-most-once is
// untouched: cancellation only ever turns "run once" into "run zero
// times"). The Handle's future shares a slab with up to 63 others, so a
// retained Handle — or a still-pending job — keeps that many neighbours'
// results reachable.
func (d *Dispatcher) Do(ctx context.Context, t Task) (Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := t.check(); err != nil {
		return Handle{}, err
	}
	f := newFuture()
	e := entryOf(&t, f)
	if ctx.Done() != nil {
		e.ctx = ctx
	}
	id, err := d.do(ctx, e)
	if err != nil {
		// The slot is spent, not reused; it must not pin the refused Task.
		f.fn, f.cb = nil, nil
		return Handle{}, err
	}
	return Handle{ID: id, f: f}, nil
}

// DoBatch submits the Tasks in order and returns one Handle per Task;
// their ids form a contiguous block. An empty batch returns (nil, nil)
// without consuming a job id or touching a shard — note the contrast
// with real ids, which start at 1. Acceptance is all-or-nothing and a
// failed call consumes no ids (ErrClosed, ErrQueueFull when a FailFast
// batch does not fit, ErrJournalFull past MaxJobs — see doBatch). ctx is
// checked only BEFORE acceptance (a dead ctx rejects the batch with
// nothing consumed); unlike Do's abortable single-job admission, an
// accepted Block-policy batch consumes its ids up front and is fed in
// un-abortably as rounds free space, and every Handle resolves exactly
// once regardless of ctx. The batch's futures are one allocation, so a
// retained Handle keeps its whole batch's results reachable.
func (d *Dispatcher) DoBatch(ctx context.Context, tasks []Task) ([]Handle, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range tasks {
		if err := tasks[i].check(); err != nil {
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
	}
	futs := make([]future, len(tasks))
	first, err := d.doBatch(ctx, len(tasks), func(i int) entry {
		return entryOf(&tasks[i], &futs[i])
	})
	if err != nil {
		return nil, err
	}
	handles := make([]Handle, len(tasks))
	for i := range handles {
		handles[i] = Handle{ID: first + uint64(i), f: &futs[i]}
	}
	return handles, nil
}

// Runner is a job that is its own task: ONE object carries the payload
// and hears the outcome, and the interface value rides the queue entry.
// It is the only job shape the dispatcher's core knows — Do and DoBatch
// submit the future behind each Handle as one — so submitting a
// caller-owned Runner costs no closure, no future and no Handle.
type Runner interface {
	// Run is the payload, invoked at most once from a shard worker under
	// a context carrying the job's deadline. As for Task.Fn the error
	// does not affect at-most-once accounting; the core drops it, and it
	// is NOT repeated in Resolved's JobResult — a Runner that wants it
	// keeps it (the round's join orders Run before Resolved).
	Run(ctx context.Context) error
	// Resolved is invoked exactly once with the job's JobResult (Err set
	// only for expiry and cancellation), where a Task.Callback would be:
	// on the performing shard's loop goroutine, or synchronously inside
	// DoRunners for a journal-recovered job.
	Resolved(r JobResult)
}

// RunnerTask is one element of a DoRunners batch: a Runner and its
// scheduling contract — Task's, with the deadline the way an entry
// carries it: Unix nanoseconds, 0 for none.
type RunnerTask struct {
	Runner   Runner
	Deadline int64
	Priority Priority
}

// DoRunners submits the tasks in order as one batch and returns the id of
// the first; task i gets id first+i, one contiguous range leased in one
// step off the cursor every id comes from.
// Acceptance is all-or-nothing and ctx is checked only before it, as for
// DoBatch; an empty batch returns (0, nil) — 0 is never a real id —
// without consuming an id or touching a shard.
// tasks is not retained (reuse the slice); the call allocates nothing.
func (d *Dispatcher) DoRunners(ctx context.Context, tasks []RunnerTask) (uint64, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range tasks {
		if t := &tasks[i]; t.Runner == nil || !t.Priority.valid() {
			return 0, fmt.Errorf("dispatch: task %d: nil Runner or unknown Priority(%d)", i, int8(t.Priority))
		}
	}
	return d.doBatch(ctx, len(tasks), func(i int) entry {
		return entry{run: tasks[i].Runner, dl: tasks[i].Deadline, pri: tasks[i].Priority}
	})
}
