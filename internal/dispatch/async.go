package dispatch

import "context"

// JobResult reports one submitted job's completion to its future,
// callback or Runner. Exactly one is delivered per async submission.
type JobResult struct {
	// ID is the job's dispatcher-wide id.
	ID uint64
	// Err is the payload's returned error (always nil for the v1 func()
	// paths, whose payloads cannot fail, and for DoRunners, whose Runner
	// keeps it), or context.DeadlineExceeded when Expired is set. An error
	// does not affect at-most-once accounting: the job counts performed.
	Err error
	// Expired is true when the job's deadline passed before its round
	// was assembled: the payload never ran and never will (an expired
	// job is removed at round-assembly time, so at-most-once is
	// untouched), and Err is context.DeadlineExceeded.
	Expired bool
	// Cancelled is true when the job's submission ctx (Do's ctx
	// argument) was already cancelled when its shard assembled the next
	// round: the payload never ran and never will — like deadline
	// expiry, cancellation is decided at round-assembly time, so it can
	// only turn "run once" into "run zero times" — and Err is the ctx's
	// error (context.Canceled or context.DeadlineExceeded).
	Cancelled bool
	// Recovered is true when the job resolved from a previous
	// incarnation's durable journal: a prior process performed it, so
	// this incarnation completed the future without re-running the
	// payload (the at-most-once guarantee across process death).
	Recovered bool
}

// SubmitAsync enqueues fn like Submit and additionally returns a future:
// a 1-buffered channel that receives exactly one JobResult once the job
// has been performed (after its payload returned), or immediately when
// the job resolves from a previous incarnation's durable journal. The
// channel is never closed. Backpressure applies exactly as for Submit:
// with a bounded queue the call blocks (Block) or fails with
// ErrQueueFull (FailFast) — a failed call delivers nothing.
func (d *Dispatcher) SubmitAsync(fn Job) (uint64, <-chan JobResult, error) {
	ch := make(chan JobResult, 1)
	id, err := d.do(context.Background(), entry{run: fn0(fn), cb: func(r JobResult) { ch <- r }})
	if err != nil {
		return 0, nil, err
	}
	return id, ch, nil
}

// SubmitCallback enqueues fn like Submit and invokes done exactly once
// when the job completes. done runs on the performing shard's loop
// goroutine — it must be fast and must not call back into the
// dispatcher's blocking methods (Flush, Close) — or, for jobs resolved
// from the durable journal, synchronously on the submitting goroutine
// with Recovered set. A nil done degrades to Submit.
func (d *Dispatcher) SubmitCallback(fn Job, done func(JobResult)) (uint64, error) {
	return d.do(context.Background(), entry{run: fn0(fn), cb: done})
}
