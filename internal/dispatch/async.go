package dispatch

// JobResult reports one accepted job's completion to its future,
// callback or Runner. Exactly one is delivered per job.
type JobResult struct {
	// ID is the job's dispatcher-wide id.
	ID uint64
	// Err is the error Task.Fn returned (always nil for DoRunners, whose
	// Runner keeps its own), context.DeadlineExceeded when Expired is
	// set, or the submission ctx's error when Cancelled is. A payload's
	// error does not affect at-most-once accounting — the job counts
	// performed.
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
