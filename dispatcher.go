package atmostonce

import (
	"atmostonce/internal/dispatch"

	// Register the "net:" backend (networked register service) in the
	// membackend registry, so DispatcherConfig.Backend can name it.
	_ "atmostonce/internal/netmem"
)

// DispatcherConfig configures a streaming Dispatcher. It is the engine's
// own configuration, dispatch.Config, where each field is documented.
type DispatcherConfig = dispatch.Config

// Dispatcher executes a continuous stream of jobs with at-most-once
// semantics. It is the engine itself, dispatch.Dispatcher, not a wrapper.
// Submitted jobs are batched into rounds; every round runs the KKβ
// algorithm on one of S independent shards, and jobs a round leaves
// unperformed (Theorem 2.1 makes some unavoidable) are carried into the
// shard's next round. A job is therefore executed at most once — and, as
// long as the dispatcher runs, exactly once; the per-round effectiveness
// tail of ≤ β+m−2 jobs is deferred, never lost.
//
// Do(ctx, Task) submits one job and returns its Handle (id and Done()
// future); DoBatch submits many Tasks under one contiguous id block, all
// or nothing, and DoRunners the engine's own Runner jobs. Ids are 1, 2,
// 3, … in acceptance order across all three, so a fixed submission order
// reproduces the same ids. A job whose deadline passes before its round
// is assembled is never started and resolves with Expired set. Flush and
// FlushContext wait for every job submitted so far; Close drains, stops
// the shards and closes the backends; Sync flushes durable backends.
// Stats snapshots the counters, and LatencyQuantiles, Registry, Tracer
// and OpsAddr read the metrics, the sampled job timelines and the ops
// endpoint that Metrics, TraceSampleRate and MetricsAddr turn on.
//
// With a durable Backend ("mmap:PATH") at-most-once extends across
// process death: performed jobs are journaled in the register file
// before their payload runs, and a restarted dispatcher over the same
// files recovers the journal and skips those jobs when the stream is
// re-submitted (UnclaimedRecovered reports what no re-submission has
// claimed yet). See examples/recover.
//
// All methods are safe for concurrent use. See examples/stream.
type Dispatcher = dispatch.Dispatcher

// SubmitPolicy selects what a submission into a full shard queue does;
// see DispatcherConfig.QueueDepth.
type SubmitPolicy = dispatch.SubmitPolicy

const (
	// Block parks the submitter until the shard's rounds free space.
	Block SubmitPolicy = dispatch.Block
	// FailFast returns ErrQueueFull instead of waiting; no job id is
	// consumed, so the caller can simply retry.
	FailFast SubmitPolicy = dispatch.FailFast
)

// ErrQueueFull is returned by the submit paths under SubmitPolicy
// FailFast when the target shard's bounded queue is at QueueDepth.
var ErrQueueFull = dispatch.ErrQueueFull

// ErrClosed is returned by every submission path after (or racing) Close
// — including Block-policy submitters that were parked on a full queue
// when Close began: they are released with ErrClosed, their job ids
// unconsumed, instead of hanging.
var ErrClosed = dispatch.ErrClosed

// ErrNilFn is returned by Do and DoBatch for a Task without a payload.
var ErrNilFn = dispatch.ErrNilFn

// JobResult reports a job's completion; exactly one is delivered per
// Handle future or callback. Err carries the payload's returned error
// (or context.DeadlineExceeded when Expired is set); Expired marks jobs
// whose deadline passed before their round was assembled (the payload
// never ran); Cancelled marks jobs whose submission ctx died while they
// were queued (likewise never started); Recovered marks jobs that
// resolved from a previous incarnation's durable journal without
// re-running.
type JobResult = dispatch.JobResult

// Task is the job descriptor accepted by Do and DoBatch: a payload plus
// its scheduling contract (deadline, priority, optional completion
// callback).
type Task = dispatch.Task

// Handle identifies an accepted Task: its dispatcher-wide job id and a
// Done() future delivering exactly one JobResult. Futures are carved 64
// to an allocation (a DoBatch's all from one), so a retained Handle keeps
// up to 63 other jobs' JobResults — an error each — reachable with its own.
type Handle = dispatch.Handle

// Priority is a Task's scheduling class. Shards drain High before
// Normal before Low (FIFO within a class, residue keeps its place in
// its own class); a lower class is delayed only while a higher one has
// queued work.
type Priority = dispatch.Priority

const (
	// Normal is the default (zero-value) priority.
	Normal Priority = dispatch.Normal
	// High jobs jump every queued Normal and Low job.
	High Priority = dispatch.High
	// Low jobs run only when no High or Normal work is queued.
	Low Priority = dispatch.Low
)

// NewDispatcher starts a dispatcher; Close must be called to release its
// worker pools. Over durable register files holding an earlier
// incarnation's journal it recovers that journal before any round runs.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) { return dispatch.New(cfg) }

// EffBuckets is the length of DispatcherStats.EffHist, the per-round
// effectiveness histogram.
const EffBuckets = dispatch.EffBuckets

// DispatcherStats snapshots dispatcher progress counters; the fields are
// documented on dispatch.Stats. Submitted = Performed + Pending always
// holds: Recovered, Expired and Cancelled jobs never ran their payload
// and are included in Performed. Duplicates is always 0 — it is reported
// so harnesses can assert it.
type DispatcherStats = dispatch.Stats

// DispatcherShardStats reports one shard's counters (DispatcherStats'
// Shards[i]); the fields are documented on dispatch.ShardStats.
type DispatcherShardStats = dispatch.ShardStats
