package atmostonce

import (
	"context"
	"time"

	"atmostonce/internal/dispatch"
	"atmostonce/internal/membackend"

	// Register the "net:" backend (networked register service) in the
	// membackend registry, so DispatcherConfig.Backend can name it.
	_ "atmostonce/internal/netmem"
)

// DispatcherConfig configures a streaming Dispatcher.
type DispatcherConfig struct {
	// Shards is the number of independent KKβ engines jobs are spread
	// over; rounds on different shards execute fully in parallel
	// (default 1).
	Shards int
	// WorkersPerShard is m for each shard's worker pool. The default is
	// derived from runtime.GOMAXPROCS(0) spread over the shards
	// (DefaultWorkersPerShard), so a default-config dispatcher matches
	// the machine instead of oversubscribing it.
	WorkersPerShard int
	// Beta is KKβ's termination parameter per shard (0 = WorkersPerShard,
	// the effectiveness-optimal choice).
	Beta int
	// MaxBatch caps the jobs a shard executes per round (default 1024).
	// It is a cap, not the round size: rounds are sized adaptively from
	// observed queue depth and recent round latency (see RoundTarget).
	MaxBatch int
	// QueueDepth bounds each shard's resident jobs — queued plus the
	// round in flight (0 = unbounded). A saturated shard then exerts
	// real backpressure: submissions block until rounds free space, or
	// fail fast, per SubmitPolicy — instead of growing the queue without
	// bound. The bound holds even while crash-injected residue requeues
	// and work-stealing migrates jobs.
	QueueDepth int
	// SubmitPolicy selects the behavior of submissions into a full shard
	// queue: Block (default) parks the submitter, FailFast returns
	// ErrQueueFull without consuming a job id. Only meaningful with
	// QueueDepth.
	SubmitPolicy SubmitPolicy
	// RoundTarget is the adaptive round controller's latency goal: each
	// shard sizes its rounds so they finish within roughly this duration
	// at the observed per-job cost, capped by MaxBatch. Smaller targets
	// bound per-job completion latency; larger targets favor throughput.
	// 0 means the default (5ms); negative disables adaptive sizing.
	RoundTarget time.Duration
	// Jitter adds scheduling noise inside the pools; Seed makes it
	// deterministic.
	Jitter bool
	Seed   int64
	// CrashPlan optionally injects worker crashes for fault testing:
	// before shard s runs its round r (0-based) it receives
	// CrashPlan(s, r); a non-nil result gives each worker a step count
	// after which it stops (0 = never; at least one worker must survive).
	// Crashed workers revive on the shard's next round, and the jobs their
	// crash left unperformed are carried into it.
	CrashPlan func(shard, round int) []uint64
	// Backend selects the register backend by membackend spec. "" or
	// "atomic" is the in-process default: volatile (membackend.Volatile —
	// nothing written through it can be reopened), so no journal is kept
	// at all and MaxJobs and JournalBatch are ignored. Every other spec,
	// wrappers included, keeps one (DESIGN.md §7). "mmap:PATH" makes the
	// dispatcher durable: shard s maps the register file "PATH.shard<s>",
	// and at-most-once state survives process death — NewDispatcher over
	// existing files recovers the performed-job journal, and a client
	// that re-submits the same job stream in the same order has each
	// already-performed job resolve instantly instead of running twice
	// (see examples/recover). "net:HOST:PORT/NS" keeps the journal on
	// an amo-regd register server: shard s uses namespace "NS.shard<s>",
	// holds the single-writer lease on it (a second dispatcher over the
	// same namespaces waits for the lease and then takes over, fenced
	// against the old writer — see examples/failover), and recovery
	// works exactly as for mmap, over the wire. "counting:SPEC" wraps
	// any backend with access counting — on a dispatcher that is journal
	// traffic only (the fingerprint, the words of each flush, the
	// recovery scan): a shard's round registers stay in process memory
	// whatever the backend. Durable and remote backends require MaxJobs.
	Backend string
	// MaxJobs bounds the distinct job ids a durable dispatcher may
	// assign over the lifetime of its register files (across restarts);
	// it sizes the on-disk journal — one bit per id per worker, so
	// WorkersPerShard/8 bytes of store per job per shard (it was
	// 8·WorkersPerShard) — and submissions fail once it is exhausted.
	// Required when Backend is durable or wrapped; ignored for the
	// in-process default. Stores written before layout amo-dispatch-v5
	// are refused: start durable stores fresh.
	MaxJobs int
	// JournalBatch is the durable journal's group-commit factor (default
	// 1 = one acknowledged journal write per job). At k > 1 each worker
	// claims up to k jobs per journal write: all k bits land in one
	// acked write of a few words (one msync for mmap, one round trip for
	// net) before any of their payloads run, so at-most-once still holds
	// across process death — but a kill between the batch write and the
	// payloads loses up to k jobs per worker to effectiveness (recovery
	// counts them performed; they are never re-run and never duplicated).
	// See DESIGN.md §7 for the crash-window analysis. Ignored for the
	// in-process default backend.
	JournalBatch int
	// Metrics enables the dispatcher's metric registry (Registry,
	// LatencyQuantiles). MetricsAddr and TraceSampleRate each imply it.
	Metrics bool
	// MetricsAddr, when non-empty, binds the ops HTTP endpoint there
	// (e.g. "127.0.0.1:9091", or ":0" for a kernel-chosen port reported
	// by OpsAddr). It serves /metrics (Prometheus text exposition for
	// the dispatcher, netmem and membackend families), /healthz,
	// /statsz (Stats plus registry snapshot as JSON), /tracez (sampled
	// job timelines) and /debug/pprof/*. The endpoint closes with the
	// dispatcher.
	MetricsAddr string
	// TraceSampleRate samples per-job timelines: the fraction of job
	// ids (deterministically hashed, 0..1) whose lifecycle events —
	// Submitted, Queued, Stolen, Started, Journaled, Resolved, Expired,
	// Recovered — are recorded into a bounded ring, dumpable at
	// /tracez. 0 disables tracing.
	TraceSampleRate float64
}

// Dispatcher executes a continuous stream of jobs with at-most-once
// semantics. Submitted jobs are batched into rounds; every round runs the
// KKβ algorithm on one of S independent shards, and jobs a round leaves
// unperformed (Theorem 2.1 makes some unavoidable) are carried into the
// shard's next round. A job is therefore executed at most once — and, as
// long as the dispatcher runs, exactly once; the per-round effectiveness
// tail of ≤ β+m−2 jobs is deferred, never lost.
//
// Do(ctx, Task) is the submission entry point: a Task carries its
// payload plus an optional deadline, priority (each shard drains High
// before Normal before Low) and completion callback, and the returned
// Handle exposes the job's future. A job whose deadline passes before
// its round is assembled is never started and resolves with Expired set
// — expiry can only turn "run once" into "run zero times", so
// at-most-once is untouched. DoBatch submits many Tasks under one
// contiguous id block.
//
// With a durable Backend ("mmap:PATH") at-most-once extends across
// process death: performed jobs are journaled in the register file
// before their payload runs, and a restarted dispatcher over the same
// files recovers the journal and skips those jobs when the stream is
// re-submitted. See examples/recover.
//
// All methods are safe for concurrent use. See examples/stream.
type Dispatcher struct {
	d *dispatch.Dispatcher
}

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

// DefaultWorkersPerShard is the worker count a dispatcher uses when
// DispatcherConfig.WorkersPerShard is 0: runtime.GOMAXPROCS(0) divided
// across the shards (rounded up), clamped to [2, 8]. KKβ needs m ≥ 2,
// and past 8 workers per shard the register contention outweighs the
// parallelism.
func DefaultWorkersPerShard(shards int) int { return dispatch.DefaultWorkers(shards) }

// NewDispatcher starts a dispatcher; Close must be called to release its
// worker pools.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	dcfg := dispatch.Config{
		Shards:          cfg.Shards,
		Workers:         cfg.WorkersPerShard,
		Beta:            cfg.Beta,
		MaxBatch:        cfg.MaxBatch,
		QueueDepth:      cfg.QueueDepth,
		Policy:          cfg.SubmitPolicy,
		RoundTarget:     cfg.RoundTarget,
		Jitter:          cfg.Jitter,
		Seed:            cfg.Seed,
		CrashPlan:       cfg.CrashPlan,
		Metrics:         cfg.Metrics,
		MetricsAddr:     cfg.MetricsAddr,
		TraceSampleRate: cfg.TraceSampleRate,
	}
	if !membackend.Volatile(cfg.Backend) {
		spec := cfg.Backend
		dcfg.NewMem = func(shard, size int) (membackend.Backend, error) {
			return membackend.Open(membackend.ShardSpec(spec, shard), size)
		}
		dcfg.MaxJobs = cfg.MaxJobs
		dcfg.JournalBatch = cfg.JournalBatch
	}
	d, err := dispatch.New(dcfg)
	if err != nil {
		return nil, err
	}
	return &Dispatcher{d: d}, nil
}

// Do is the submission entry point: it accepts one Task — payload,
// optional deadline, priority and completion callback — and returns its
// Handle (job id plus Done() future). Ids are 1, 2, 3, … in acceptance
// order across Do and DoBatch however the calls interleave, so a fixed
// submission order always reproduces the same ids (the deterministic
// re-submission contract), and a durable dispatcher accepts exactly
// MaxJobs jobs. With a bounded queue (QueueDepth) and the target shard
// saturated, Do blocks until rounds free space (Block) or fails with
// ErrQueueFull (FailFast).
//
// ctx governs admission: a cancelled or expired ctx releases a
// Block-policy submitter parked on a full queue (and a racing Close
// releases it with ErrClosed) WITHOUT consuming a job id, so the id
// sequence stays dense for deterministic re-submission. Once Do returns
// nil, the Task will resolve exactly once — performed (Err carrying the
// payload's error), Expired (deadline passed before its round was
// assembled; the payload never ran), Cancelled (ctx died while the Task
// was still queued; resolved at the next round assembly, payload never
// ran), or Recovered (durable journal). A Task whose round has already
// been cut runs to completion regardless of ctx. A retained Handle, or a
// job still pending, keeps the results of the up to 63 jobs whose futures
// share its allocation reachable (see Handle).
func (d *Dispatcher) Do(ctx context.Context, t Task) (Handle, error) { return d.d.Do(ctx, t) }

// DoBatch submits the Tasks in order, returning one Handle per Task
// over a contiguous id block — the next len(tasks) ids of the one
// sequence Do draws from. Acceptance is all-or-nothing: a batch
// racing Close, overflowing a FailFast queue or crossing MaxJobs is
// either fully accepted (and performed) or rejected with an error and no
// id consumed. ctx is checked only BEFORE acceptance (a dead ctx
// rejects the batch with nothing consumed); unlike Do's single-job
// admission, an accepted Block-policy batch consumes its ids
// immediately and is fed in un-abortably as rounds free space — its ids
// are already part of the deterministic sequence, so cancelling ctx
// mid-feed cannot release it. An EMPTY batch returns the sentinel
// (nil, nil): no job id is consumed and no shard is touched — real ids
// start at 1.
func (d *Dispatcher) DoBatch(ctx context.Context, tasks []Task) ([]Handle, error) {
	return d.d.DoBatch(ctx, tasks)
}

// Flush blocks until every job submitted so far has resolved —
// performed, expired, or recovered — including residue carried across
// rounds.
func (d *Dispatcher) Flush() { d.d.Flush() }

// FlushContext is Flush with a deadline: it returns nil once every job
// submitted so far has resolved, or ctx.Err() when ctx is cancelled or
// expires first. The dispatcher keeps draining either way.
func (d *Dispatcher) FlushContext(ctx context.Context) error { return d.d.FlushContext(ctx) }

// Close drains pending jobs, stops the shards and releases the pools;
// durable backends are synced and closed. Subsequent submissions fail
// with ErrClosed.
// Close is idempotent.
func (d *Dispatcher) Close() error { return d.d.Close() }

// Sync flushes durable register backends to stable storage. It is a
// no-op for in-process dispatchers and safe to call while rounds run.
func (d *Dispatcher) Sync() error { return d.d.Sync() }

// OpsAddr returns the bound address of the ops HTTP endpoint, and ""
// when DispatcherConfig.MetricsAddr is unset. With a ":0" config it
// carries the kernel-chosen port.
func (d *Dispatcher) OpsAddr() string { return d.d.OpsAddr() }

// LatencyQuantiles reads quantiles (each in [0,1]) off the sampled
// submit→completion latency histogram — the same histogram /metrics
// exposes as amo_dispatcher_submit_to_done_seconds. ok is false when
// metrics are disabled or nothing has been sampled yet. Estimates
// never undershoot the true quantile and overshoot by at most 12.5%
// (the histogram's bucket width).
func (d *Dispatcher) LatencyQuantiles(qs ...float64) ([]time.Duration, bool) {
	return d.d.LatencyQuantiles(qs...)
}

// Stats returns a point-in-time snapshot of dispatcher progress.
func (d *Dispatcher) Stats() DispatcherStats { return d.d.Stats() }

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
