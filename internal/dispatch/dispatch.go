// Package dispatch turns the paper's fixed-batch at-most-once primitive
// into a streaming engine. A Dispatcher accepts a continuous stream of
// jobs, batches them into rounds, and partitions each round across S
// shards — every shard a persistent KKβ worker pool (conc.Runtime) with
// its own m workers and register file. Each round's unperformed residue
// (the unavoidable ≤ β+m−2 tail of Theorem 4.4, plus anything lost to
// injected crashes) is carried to the front of the shard's queue for the
// next round, so the additive per-round effectiveness loss never turns
// into a lost job: every submitted job is eventually performed, and the
// at-most-once guarantee holds end-to-end because a job is requeued only
// when no worker performed it.
//
// This is the round/epoch construction of the do-all literature (Dwork,
// Halpern & Waarts) layered over KKβ: amortize the per-round loss over a
// long computation instead of paying it once on a single batch.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"atmostonce/internal/denseset"
	"atmostonce/internal/membackend"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/obs/opshttp"
)

// Config configures a Dispatcher.
type Config struct {
	// Shards is S, the number of independent KKβ instances (default 1).
	// Shards multiply throughput: rounds on different shards run fully in
	// parallel and share nothing.
	Shards int
	// Workers is m, the worker goroutines per shard. The default is
	// derived from the machine: enough workers to cover
	// runtime.GOMAXPROCS(0) across the shards, clamped to [2, 8] per
	// shard (see DefaultWorkers).
	Workers int
	// Beta is KKβ's termination parameter per shard (0 = Workers, the
	// effectiveness-optimal choice).
	Beta int
	// MaxBatch caps the jobs a shard executes in one round (default 1024).
	// It bounds the shard's register file and round batch, which grow with
	// the largest round the shard has cut, so memory is at most
	// S·Workers·MaxBatch registers in total. It is a CAP, not the round
	// size: each round is sized by the adaptive controller (see
	// RoundTarget) from observed queue depth and recent round latency.
	MaxBatch int
	// QueueDepth bounds each shard's resident jobs — queued plus the
	// round in flight (0 = unbounded, the legacy behavior). When a shard
	// is at depth, submissions into it block or fail according to
	// Policy, so a saturated dispatcher exerts real backpressure instead
	// of growing its rings without bound. The bound is hard: in-flight
	// jobs keep holding their slots until their round resolves (any of
	// them may come back as residue), and a thief steals at most into
	// its own free capacity, so neither residue carry-over nor
	// work-stealing pushes a queue past what submitters see.
	QueueDepth int
	// Policy selects what a submission into a full shard queue does:
	// Block (the default) parks the submitter until space frees, FailFast
	// returns ErrQueueFull immediately. Only meaningful with QueueDepth.
	Policy SubmitPolicy
	// RoundTarget is the adaptive round controller's latency goal: each
	// shard sizes its next round so that — at the EWMA per-job cost
	// observed over recent rounds — the round should finish within
	// roughly this duration, capped by MaxBatch and floored at Workers.
	// Smaller targets cut smaller, more frequent rounds (lower per-job
	// completion latency); larger targets amortize round overhead
	// (higher throughput). 0 means DefaultRoundTarget; negative disables
	// latency-based sizing (rounds are cut from queue depth alone).
	RoundTarget time.Duration
	// Jitter adds scheduling noise inside the worker pools; Seed makes it
	// deterministic.
	Jitter bool
	Seed   int64
	// CrashPlan, when non-nil, injects worker crashes: before shard s runs
	// its round r (0-based), CrashPlan(s, r) may return a per-worker step
	// budget (0 = never crash; at least one worker must survive). Crashed
	// workers are revived on the shard's next round. Malformed vectors are
	// ignored. This is the fault-injection hook used by the chaos tests;
	// a plan that crashes workers on every round forever can starve Flush.
	CrashPlan func(shard, round int) []uint64
	// NewMem, when non-nil, supplies each shard's journal backend
	// (internal/membackend): the shard journals every performed job there
	// and runs its rounds in process memory regardless. The factory is
	// called once per shard with the number of cells the shard needs;
	// durable backends (mmap) make the dispatcher crash recoverable — see
	// Recovery below. Requires MaxJobs.
	NewMem func(shard, size int) (membackend.Backend, error)
	// MaxJobs bounds the distinct job ids a backend-backed dispatcher may
	// assign over the lifetime of its register files (across restarts):
	// it sizes the durable journal rows — a bit per id per worker,
	// Workers/8 bytes of store per job per shard — and submissions fail
	// with ErrJournalFull beyond it. Required with NewMem, ignored without.
	MaxJobs int
	// JournalBatch is the durable journal's group-commit factor (default
	// 1 = journal per job). At k > 1 each worker CLAIMS up to k jobs —
	// marking them taken in the round but deferring their payloads — then
	// journals all k in one acked write of the few bitmap words they
	// fall in and runs the k payloads, paying one ack (one msync, one
	// network round trip) per claim instead of per job. Record-then-do still holds per batch: no
	// payload runs before its journal record is acknowledged, so a crash
	// can never produce a duplicate. The crash WINDOW widens from one job
	// to k per worker: a process killed after the batch journal write but
	// before the payloads has recorded up to k jobs whose payloads never
	// ran, which recovery counts performed — effectiveness loss, bounded
	// by Workers·JournalBatch per crash (DESIGN.md §7). Ignored without
	// NewMem.
	JournalBatch int
	// Metrics enables the dispatcher's obs registry: per-shard
	// submit/round/steal/expiry counters, queue-depth and round-size
	// gauges, and the round-duration, round-loss and sampled
	// submit→completion histograms, all exposable in Prometheus text
	// format (Registry, or the ops endpoint below). MetricsAddr and a
	// positive TraceSampleRate each imply it.
	Metrics bool
	// MetricsAddr, when non-empty, binds an ops HTTP endpoint
	// (host:port; ":0" picks a free port, OpsAddr returns it) serving
	// /metrics, /healthz, /statsz, /tracez and /debug/pprof/*. The
	// endpoint exposes this dispatcher's registry alongside the
	// process-global one (netmem, membackend) and closes with the
	// dispatcher.
	MetricsAddr string
	// TraceSampleRate samples that fraction of job ids (deterministically
	// by id hash, clamped to [0,1]) into a ring-buffered per-job event
	// timeline — submitted→queued→(stolen|requeued)*→started→journaled→
	// resolved, plus expired and recovered — dumpable at /tracez and via
	// Tracer.
	TraceSampleRate float64
}

// Recovery. A dispatcher over durable backends journals every performed
// job's id before running its payload (record-then-do: a crash can cost
// effectiveness, never a duplicate — the paper's trade, Theorem 2.1).
// When New finds existing register state, it scans the journals and
// treats those ids as already performed. The contract is that the
// client re-submits the same job stream in the same order after a
// restart: every id comes off one cursor (lease), 1, 2, 3, … in
// acceptance order across Do, DoBatch and DoRunners, so the same stream
// reproduces the same ids, and determinism of the stream is the
// client's responsibility. Re-submitted jobs that were performed by a
// previous incarnation resolve immediately without running their
// payload, and everything else — including the residue the crash cut
// off mid-round — runs exactly once. Stats.Recovered counts the skips.

// SubmitPolicy selects the behavior of submissions into a shard whose
// bounded queue is full (Config.QueueDepth).
type SubmitPolicy int

const (
	// Block parks the submitter until the shard's rounds free space.
	Block SubmitPolicy = iota
	// FailFast returns ErrQueueFull instead of waiting. A rejected
	// submission consumes no job id, so deterministic re-submission (the
	// durable recovery contract) is unaffected by transient overload.
	FailFast
)

// DefaultRoundTarget is the adaptive controller's latency goal when
// Config.RoundTarget is zero: long enough that cheap payloads run at
// full MaxBatch rounds (throughput unharmed), short enough that a queue
// of slow payloads is cut into small rounds and per-job completion
// latency stays bounded.
const DefaultRoundTarget = 5 * time.Millisecond

// DefaultWorkers is the worker count per shard used when Config.Workers
// is zero: ceil(GOMAXPROCS/shards), so the default dispatcher saturates
// the machine without oversubscribing it, clamped to [2, 8] — m = 1
// degenerates KKβ (no contention to resolve, but also no fault
// tolerance), and beyond 8 the done-matrix gather cost per round
// outweighs the extra parallelism of a single shard.
func DefaultWorkers(shards int) int {
	if shards < 1 {
		shards = 1
	}
	p := runtime.GOMAXPROCS(0)
	w := (p + shards - 1) / shards
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	return w
}

func (c *Config) normalize() error {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers(c.Shards)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxBatch < c.Workers {
		c.MaxBatch = c.Workers
	}
	if c.Beta < 0 {
		return fmt.Errorf("dispatch: negative beta %d", c.Beta)
	}
	if c.NewMem != nil && c.MaxJobs <= 0 {
		return fmt.Errorf("dispatch: NewMem requires MaxJobs > 0 (it sizes the durable journal)")
	}
	if c.JournalBatch <= 0 {
		c.JournalBatch = 1
	}
	if c.NewMem != nil && c.JournalBatch > c.MaxJobs {
		c.JournalBatch = c.MaxJobs
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	switch c.Policy {
	case Block, FailFast:
	default:
		return fmt.Errorf("dispatch: unknown SubmitPolicy %d", c.Policy)
	}
	if c.RoundTarget == 0 {
		c.RoundTarget = DefaultRoundTarget
	}
	if c.TraceSampleRate < 0 {
		c.TraceSampleRate = 0
	}
	if c.TraceSampleRate > 1 {
		c.TraceSampleRate = 1
	}
	if c.MetricsAddr != "" || c.TraceSampleRate > 0 {
		c.Metrics = true
	}
	return nil
}

// ErrClosed is returned by Do, DoBatch and DoRunners after (or racing)
// Close.
var ErrClosed = errors.New("dispatch: dispatcher is closed")

// ErrQueueFull is returned by the submit paths under Policy FailFast
// when the target shard's queue is at Config.QueueDepth. The submission
// consumed no job id; the caller may retry.
var ErrQueueFull = errors.New("dispatch: shard queue is full (QueueDepth reached)")

// ErrJournalFull is returned by Do, DoBatch and DoRunners when accepting
// the jobs would assign ids beyond Config.MaxJobs, the capacity of the
// durable journal rows.
var ErrJournalFull = errors.New("dispatch: durable journal capacity exhausted (raise Config.MaxJobs)")

// padUint64 is an atomic counter alone on its cache line, so hot
// counters owned by different shards never false-share.
type padUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// shardCount holds one shard's submission/completion counters, each on
// its own cache line. Flush and Stats sum them across shards — reading
// every performed before any submitted, so the sums never show a job
// performed without its submission (see FlushContext).
type shardCount struct {
	submitted atomic.Uint64
	_         [56]byte
	performed atomic.Uint64
	_         [56]byte
}

// Dispatcher is a long-lived, sharded, round-based at-most-once engine.
// All methods are safe for concurrent use.
type Dispatcher struct {
	cfg    Config
	shards []*shard
	start  time.Time

	idCursor padUint64 // ids leased so far: the last id assigned
	rr       padUint64 // round-robin shard cursor

	// counts[i] belongs to shard i; len(counts) == Shards.
	counts []shardCount
	// flushers counts FlushContext calls parked on cond; shards broadcast
	// completion progress only while one is waiting (see shard.jobsDone).
	flushers atomic.Int32

	// Crash-recovery state: ids a previous incarnation's journals proved
	// performed (filled by the shards' recovery scans inside New, one
	// shard at a time), consumed as the client re-submits the stream.
	// recLeft lets the common case (nothing recovered, or already drained)
	// skip the lock entirely.
	recLeft    atomic.Int64
	recMu      sync.Mutex
	recovered  denseset.Set
	recoveredN atomic.Uint64 // jobs resolved from the journal, for Stats

	// Observability (see obs.go): reg is the dispatcher's metric
	// registry (nil with Metrics off), the three histograms are its only
	// push-style instruments, tr is the sampled job tracer and ops the
	// endpoint bound to Config.MetricsAddr.
	reg          *obs.Registry
	roundHist    *obs.Histogram
	latHist      *obs.Histogram
	lossHist     *obs.Histogram
	recoveryHist *obs.Histogram
	tr           *obs.Tracer
	ops          *opshttp.Server
	// jfullOnce gates the journal-full warning: the condition repeats on
	// every rejected submission, the event is interesting once.
	jfullOnce sync.Once
	// closeMu makes submission all-or-nothing with respect to Close:
	// submitters hold the read side across their closed-check and enqueue,
	// and Close takes the write side after flipping closed, so a batch is
	// either fully enqueued before the shards stop (and drains) or fully
	// rejected — never partially accepted.
	closeMu sync.RWMutex
	closed  atomic.Bool

	mu   sync.Mutex // guards cond (Flush waiters)
	cond *sync.Cond
}

// New builds the dispatcher and starts its S shard loops. Callers must
// Close it to release the worker pools. Over durable backends that hold
// state from a crashed incarnation, New performs the recovery scan (see
// Recovery above) before any round runs.
func New(cfg Config) (*Dispatcher, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := &Dispatcher{cfg: cfg, start: time.Now()}
	d.cond = sync.NewCond(&d.mu)
	d.counts = make([]shardCount, cfg.Shards)
	d.shards = make([]*shard, cfg.Shards)
	d.setupObs()
	for i := range d.shards {
		s, err := newShard(d, i)
		if err != nil {
			for _, prev := range d.shards[:i] {
				prev.stop()
				prev.rt.Close()
				prev.closeBackend()
			}
			return nil, err
		}
		d.shards[i] = s
		d.registerShardObs(s)
	}
	d.recLeft.Store(int64(d.recovered.Len()))
	if err := d.startOps(); err != nil {
		for _, s := range d.shards {
			s.stop()
			s.rt.Close()
			s.closeBackend()
		}
		return nil, err
	}
	for _, s := range d.shards {
		go s.loop()
	}
	return d, nil
}

// resolveRecovered reports whether id was performed by a previous
// incarnation (per the durable journal), consuming the entry.
func (d *Dispatcher) resolveRecovered(id uint64) bool {
	if d.recLeft.Load() == 0 {
		return false
	}
	d.recMu.Lock()
	ok := d.recovered.Delete(int(id))
	if ok {
		d.recLeft.Add(-1)
	}
	d.recMu.Unlock()
	return ok
}

// UnclaimedRecovered reports how many ids the recovery scan found that no
// submission has claimed yet, and the lowest of them (0 when none). A
// caller that replays a record of every job it ever submitted expects
// none to be left: one that is names a job whose record is gone.
func (d *Dispatcher) UnclaimedRecovered() (n int, lowest uint64) {
	d.recMu.Lock()
	defer d.recMu.Unlock()
	v, _ := d.recovered.Min()
	return d.recovered.Len(), uint64(v)
}

// lease claims the next n ids off the cursor — the one place ids come
// from — and returns the first; the caller owns [first, first+n). A
// durable lease that would cross MaxJobs fails with ErrJournalFull and
// moves nothing: it burns no ids.
func (d *Dispatcher) lease(n uint64) (first uint64, err error) {
	if d.cfg.NewMem == nil {
		return d.idCursor.v.Add(n) - n + 1, nil
	}
	for {
		cur := d.idCursor.v.Load()
		if cur+n > uint64(d.cfg.MaxJobs) {
			d.warnJournalFull()
			return 0, ErrJournalFull
		}
		if d.idCursor.v.CompareAndSwap(cur, cur+n) {
			return cur + 1, nil
		}
	}
}

// warnJournalFull emits the journal-capacity event once per dispatcher.
func (d *Dispatcher) warnJournalFull() {
	d.jfullOnce.Do(func() {
		eventlog.Logger().Warn("dispatch_journal_full", "max_jobs", d.cfg.MaxJobs)
	})
}

// do is Do's submission core. e carries the Runner (resolved inline for
// a journal-recovered job) and the scheduling descriptor; its id is
// assigned here.
//
// It is NOT doBatch(ctx, 1, …), on evidence. That merge was built (−72
// lines, every test green, TestDoAllocs still 1) and measured on traced
// engine_stream in three alternating pairs: dispatch.do_call_ns_p50 176,
// 236, 251 here vs 312, 317, 319 merged, loadgen.jobs_per_s 2.07–2.25 M
// vs 1.93–2.06 M — ranges that do not touch. The plan, the chunk loops
// and three closure hops are amortised over a batch and are not over one
// job; the code picks by what it can see (one Task or a slice), and the
// benchmark has a workload on each side (engine_stream and durable_*
// call Do, jobd_* call DoRunners).
//
// Admission order matters: the queue slot is claimed BEFORE the id is
// consumed — FailFast by reservation, Block by parking in reserveWait —
// so a rejected, cancelled (ctx) or close-released submission burns
// nothing. Anything else would shift the id sequence under transient
// overload and break the deterministic re-submission contract durable
// recovery depends on.
func (d *Dispatcher) do(ctx context.Context, e entry) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed.Load() {
		return 0, ErrClosed
	}
	s := d.shards[(d.rr.v.Add(1)-1)%uint64(len(d.shards))]
	bounded := d.cfg.QueueDepth > 0
	if bounded {
		if d.cfg.Policy == FailFast {
			if !s.tryReserve(1) {
				return 0, ErrQueueFull
			}
		} else if err := s.reserveWait(ctx); err != nil {
			return 0, err
		}
	}
	id, err := d.lease(1)
	if err != nil {
		if bounded {
			s.unreserve(1)
		}
		return 0, err
	}
	s.count.submitted.Add(1)
	if d.tr != nil {
		d.tr.Record(id, obs.TraceSubmitted, s.id)
	}
	if d.resolveRecovered(id) {
		// A previous incarnation performed this job; resolve it without
		// re-running the payload (the at-most-once guarantee across
		// process death).
		if bounded {
			s.unreserve(1)
		}
		d.recoveredN.Add(1)
		if d.tr != nil {
			d.tr.Record(id, obs.TraceRecovered, s.id)
			d.tr.Record(id, obs.TraceResolved, s.id)
		}
		e.fire(JobResult{ID: id, Recovered: true})
		s.jobsDone(1)
		return id, nil
	}
	e.id = id
	if d.latHist != nil && id&latSampleMask == 0 {
		e.t0 = time.Now().UnixNano()
	}
	if d.tr != nil {
		d.tr.Record(id, obs.TraceQueued, s.id)
	}
	s.enqueueOne(e, bounded)
	return id, nil
}

// doBatch is the batch submission core shared by DoBatch and DoRunners:
// n entries produced by entryAt, completions included, get the
// contiguous id block [first, first+n) (assigned here) and are spread
// across shards in contiguous chunks, one shard lock per chunk.
//
// Acceptance is all-or-nothing: either every job is enqueued (and will
// be performed) or the call fails — with ErrClosed, with ErrQueueFull
// when a FailFast batch does not fit into the target shards' free
// capacity, or with ErrJournalFull when a durable batch would cross
// MaxJobs — and none are. A failed call consumes no ids whatsoever (the
// range lease never moves the cursor on failure), so the deterministic
// id sequence is unaffected by rejected batches. Under Block, a batch
// larger than the free capacity is fed in as rounds drain the queues.
//
// ctx governs admission only — it is checked before any id is consumed;
// an accepted batch is fed in fully even if ctx is cancelled mid-feed,
// because its ids are already part of the deterministic sequence. The
// plan is a value and the closures stay on the stack: a batch allocates
// what its caller did and nothing more.
func (d *Dispatcher) doBatch(ctx context.Context, n int, entryAt func(int) entry) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed.Load() {
		return 0, ErrClosed
	}
	plan := d.plan(n)
	failFast := d.cfg.QueueDepth > 0 && d.cfg.Policy == FailFast
	if failFast {
		for i := 0; i < plan.chunks; i++ {
			if c := plan.at(i); !c.s.tryReserve(c.hi - c.lo) {
				plan.unreserve(i)
				return 0, ErrQueueFull
			}
		}
	}
	first, err := d.lease(uint64(n))
	if err != nil {
		if failFast {
			plan.unreserve(plan.chunks)
		}
		return 0, err
	}
	for i := 0; i < plan.chunks; i++ {
		c := plan.at(i)
		c.s.count.submitted.Add(uint64(c.hi - c.lo))
	}
	var stamp int64 // one submit stamp for the whole batch's samples (0 = off)
	if d.latHist != nil {
		stamp = time.Now().UnixNano()
	}
	mk := func(i int) entry {
		e := entryAt(i)
		e.id = first + uint64(i)
		if stamp != 0 && e.id&latSampleMask == 0 {
			e.t0 = stamp
		}
		return e
	}
	recovering := d.recLeft.Load() > 0
	var buf []entry
	for ci := 0; ci < plan.chunks; ci++ {
		c := plan.at(ci)
		n, get := c.hi-c.lo, func(i int) entry { return mk(c.lo + i) }
		if recovering {
			// Recovery is draining: resolve the jobs a previous incarnation
			// already performed right here and enqueue the rest.
			buf = buf[:0]
			for i := c.lo; i < c.hi; i++ {
				e := mk(i)
				d.tr.Record(e.id, obs.TraceSubmitted, c.s.id)
				if d.resolveRecovered(e.id) {
					d.tr.Record(e.id, obs.TraceRecovered, c.s.id)
					d.tr.Record(e.id, obs.TraceResolved, c.s.id)
					e.fire(JobResult{ID: e.id, Recovered: true})
				} else {
					d.tr.Record(e.id, obs.TraceQueued, c.s.id)
					buf = append(buf, e)
				}
			}
			if skipped := n - len(buf); skipped > 0 {
				d.recoveredN.Add(uint64(skipped))
				if failFast {
					c.s.unreserve(skipped)
				}
				c.s.jobsDone(skipped)
			}
			n, get = len(buf), func(i int) entry { return buf[i] }
		} else if d.tr != nil {
			// Queued is recorded before the feed so it can never appear
			// after the round that starts the job.
			for i := c.lo; i < c.hi; i++ {
				d.tr.Record(first+uint64(i), obs.TraceSubmitted, c.s.id)
				d.tr.Record(first+uint64(i), obs.TraceQueued, c.s.id)
			}
		}
		if n > 0 {
			c.s.feed(n, get, failFast)
		}
	}
	return first, nil
}

// chunk is one contiguous slice of a batch, bound for one shard.
type chunk struct {
	s      *shard
	lo, hi int
}

// batchPlan partitions n queued items into contiguous chunks
// round-robined across the shards, one chunk per shard, chunk i computed
// on demand (at). Planning before enqueueing lets FailFast reserve every
// chunk's capacity before any id is consumed or any entry enqueued.
type batchPlan struct {
	d                    *Dispatcher
	base, per, n, chunks int
}

// plan draws the batch's start shard. The cursor advances by ONE per
// batch — advancing by S would keep the start shard constant (base ≡
// const mod S), and a batch-only workload whose batches span fewer
// chunks than Shards would pile onto the same shards forever.
func (d *Dispatcher) plan(n int) batchPlan {
	S := len(d.shards)
	per := (n + S - 1) / S
	return batchPlan{d: d, base: int((d.rr.v.Add(1) - 1) % uint64(S)), per: per, n: n, chunks: (n + per - 1) / per}
}

func (p batchPlan) at(i int) chunk {
	return chunk{p.d.shards[(p.base+i)%len(p.d.shards)], i * p.per, min((i+1)*p.per, p.n)}
}

// unreserve gives back the reservations of the plan's first k chunks.
func (p batchPlan) unreserve(k int) {
	for i := 0; i < k; i++ {
		c := p.at(i)
		c.s.unreserve(c.hi - c.lo)
	}
}

// Flush blocks until every job submitted so far has resolved — performed,
// expired, or recovered; all shard queues and in-flight rounds, carried
// residue included, have drained. Jobs submitted concurrently with Flush
// may or may not be waited for.
func (d *Dispatcher) Flush() { _ = d.FlushContext(context.Background()) }

// FlushContext is Flush with a deadline: it returns nil once every job
// submitted so far has resolved, or ctx.Err() when ctx is cancelled or
// expires first (the dispatcher keeps draining either way).
func (d *Dispatcher) FlushContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		// Wake the cond loop when ctx fires; Broadcast under d.mu pairs
		// with the Wait below, so the wakeup cannot be lost.
		stop := context.AfterFunc(ctx, func() {
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		})
		defer stop()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushers.Add(1)
	defer d.flushers.Add(-1)
	for d.sumPerformed() < d.sumSubmitted() {
		if err := ctx.Err(); err != nil {
			return err
		}
		d.cond.Wait()
	}
	return nil
}

// sumPerformed and sumSubmitted total the per-shard counters. Callers
// comparing the two must call sumPerformed FIRST: with sequentially
// consistent atomics, any job whose performed increment the first sum
// observed had its submitted increment ordered before it, so the second
// sum observes that too — performed ≥ submitted then proves every
// counted submission has resolved, never the other way around.
func (d *Dispatcher) sumPerformed() uint64 {
	var n uint64
	for i := range d.counts {
		n += d.counts[i].performed.Load()
	}
	return n
}

func (d *Dispatcher) sumSubmitted() uint64 {
	var n uint64
	for i := range d.counts {
		n += d.counts[i].submitted.Load()
	}
	return n
}

// Close drains all pending jobs, stops the shard loops and releases the
// worker pools; durable backends are synced and closed. Subsequent
// Submits fail with ErrClosed, and Block-policy submitters parked on full
// queues are released with ErrClosed (their job ids unconsumed) instead
// of being left to hang. Close is idempotent.
func (d *Dispatcher) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	// Release submitters parked at admission (reserveWait): they observe
	// closed under the shard lock and return ErrClosed without having
	// consumed an id.
	for _, s := range d.shards {
		s.mu.Lock()
		s.notFull.Broadcast()
		s.mu.Unlock()
	}
	// Wait out in-flight submitters: anything that passed its closed-check
	// finishes enqueueing before the shards are told to stop, so it drains.
	d.closeMu.Lock()
	d.closeMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	for _, s := range d.shards {
		s.stop()
	}
	for _, s := range d.shards {
		<-s.done
	}
	var err error
	for _, s := range d.shards {
		s.rt.Close()
		if e := s.closeBackend(); err == nil {
			err = e
		}
	}
	// The ops endpoint outlives the drain (a scrape may watch the
	// shutdown) and dies with the dispatcher.
	if d.ops != nil {
		if e := d.ops.Close(); err == nil {
			err = e
		}
	}
	return err
}

// Sync flushes every durable backend to stable storage (msync for the
// mmap backend). It is a no-op for in-process dispatchers and safe to
// call at any time, including while rounds are running — writes racing
// the flush may or may not be included.
func (d *Dispatcher) Sync() error {
	var err error
	for _, s := range d.shards {
		if s.backend != nil {
			if e := s.backend.Sync(); err == nil {
				err = e
			}
		}
	}
	return err
}

// abandon simulates process death for crash-recovery tests: every shard
// loop exits at its next round boundary without draining its queue, and
// the backends are left un-closed, exactly as a kill would. The
// dispatcher is unusable afterwards.
func (d *Dispatcher) abandon() {
	d.closed.Store(true)
	for _, s := range d.shards {
		s.abandon()
	}
	for _, s := range d.shards {
		<-s.done
	}
	for _, s := range d.shards {
		s.rt.Close()
	}
}

// wakeFlushers wakes parked FlushContext calls after completion
// progress, but only when one is actually waiting: flushers is
// incremented under d.mu BEFORE the flusher reads the counter sums, so
// (seq-cst) a resolver that loads flushers == 0 is ordered before that
// increment and its performed counts are visible to the flusher's own
// sums — the common no-flusher round skips the lock entirely.
func (d *Dispatcher) wakeFlushers() {
	if d.flushers.Load() == 0 {
		return
	}
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// EffBuckets is the size of the per-round effectiveness histogram: a
// fixed log scale over the round's LOSS fraction 1 − performed/batch.
// Bucket 0 counts rounds that lost more than half their batch, bucket i
// rounds with loss in (2⁻⁽ⁱ⁺¹⁾, 2⁻ⁱ], bucket EffBuckets−2 sweeps up
// every non-zero loss at or below 2⁻⁽ᴱᶠᶠᴮᵘᶜᵏᵉᵗˢ⁻²⁾, and the last bucket
// counts perfect rounds (every job in the batch performed). The log
// scale matches the quantity of interest: the paper's bound is an
// additive β+m−2 tail, so healthy rounds cluster in the fine buckets
// near zero loss and pathology shows up as mass sliding toward bucket 0.
const EffBuckets = 12

// effBucket maps one round's (performed, batch) to its histogram
// bucket.
func effBucket(performed, batch int) int {
	if performed >= batch {
		return EffBuckets - 1
	}
	loss := batch - performed // in (0, batch]
	i := 0
	for i < EffBuckets-2 && loss<<(i+1) <= batch {
		i++
	}
	return i
}

// ShardStats reports one shard's cumulative and latest-round counters.
type ShardStats struct {
	// Rounds is the number of rounds the shard has executed.
	Rounds uint64
	// Performed is the cumulative number of (real) jobs the shard
	// executed; Residue is the cumulative number it carried over to a
	// later round instead.
	Performed uint64
	Residue   uint64
	// Duplicates is the cumulative duplicate count — always 0.
	Duplicates uint64
	// Crashes counts injected worker crashes (workers revive next round).
	Crashes uint64
	// Steps and Work aggregate the paper's cost measures over all rounds.
	Steps uint64
	Work  uint64
	// Expired counts jobs whose deadline passed before their round was
	// assembled: they were removed at round-assembly time, never ran, and
	// resolved with Expired set (included in the dispatcher's Performed
	// total for conservation, like Recovered).
	Expired uint64
	// Cancelled counts jobs whose submission ctx was dead at round
	// assembly: removed like Expired ones, payload never ran, resolved
	// with Cancelled set and the ctx's error.
	Cancelled uint64
	// Stolen counts the jobs this shard claimed from sibling queues while
	// idle (work-stealing); they were performed — and, when durable,
	// journaled — by this shard under its own backend and lease.
	Stolen uint64
	// SubmitBlockedNanos accumulates the time submitters spent parked
	// waiting for space in this shard's bounded queue (Policy Block).
	SubmitBlockedNanos uint64
	// QueueDepth is the shard's pending-job queue length at snapshot
	// time (not cumulative). With Config.QueueDepth set it never exceeds
	// it.
	QueueDepth int
	// LastBatch and LastPerformed describe the most recent round: jobs in,
	// jobs done. LastPerformed/LastBatch is the round's effectiveness.
	LastBatch     int
	LastPerformed int
	// EffHist is the per-round effectiveness histogram (see EffBuckets
	// for the bucket semantics): every executed round increments exactly
	// one bucket.
	EffHist [EffBuckets]uint64
}

// Stats is a point-in-time snapshot of dispatcher progress.
type Stats struct {
	// Submitted, Performed and Pending count jobs; Pending jobs are queued
	// or in flight. Recovered counts the re-submitted jobs that resolved
	// from a previous incarnation's durable journal without re-running
	// (they are included in Performed).
	Submitted uint64
	Performed uint64
	Pending   uint64
	Recovered uint64
	// Expired counts jobs that resolved by deadline expiry at
	// round-assembly time: the payload never ran. Like Recovered, they
	// are included in Performed so Submitted = Performed + Pending.
	Expired uint64
	// Cancelled counts jobs that resolved by submission-ctx cancellation
	// at round-assembly time (the cooperative cancellation fast-path):
	// like Expired, the payload never ran and the job is included in
	// Performed for conservation.
	Cancelled uint64
	// Rounds, Residue, Duplicates, Crashes, Steps and Work sum the
	// per-shard counters.
	Rounds     uint64
	Residue    uint64
	Duplicates uint64
	Crashes    uint64
	Steps      uint64
	Work       uint64
	// StolenJobs sums the shards' work-stealing counters;
	// SubmitBlockedNanos sums the time submitters spent blocked on full
	// shard queues (backpressure). Per-shard breakdowns (including each
	// queue's current depth) are in Shards.
	StolenJobs         uint64
	SubmitBlockedNanos uint64
	// EffHist sums the shards' per-round effectiveness histograms; see
	// EffBuckets for the log-scale bucket semantics.
	EffHist [EffBuckets]uint64
	// Elapsed is the time since New; JobsPerSec is Performed/Elapsed.
	Elapsed    time.Duration
	JobsPerSec float64
	// Shards holds the per-shard breakdown, indexed by shard id.
	Shards []ShardStats
}

// Stats snapshots the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	// Sum performed first: submitted only grows, and a job is counted
	// submitted before it can ever be performed, so this order (plus the
	// clamp) keeps Pending from underflowing when jobs complete between
	// the two sums (see sumPerformed).
	performed := d.sumPerformed()
	st := Stats{
		Submitted: d.sumSubmitted(),
		Performed: performed,
		Recovered: d.recoveredN.Load(),
		Elapsed:   time.Since(d.start),
		Shards:    make([]ShardStats, len(d.shards)),
	}
	if st.Submitted < performed {
		st.Submitted = performed
	}
	st.Pending = st.Submitted - performed
	for i, s := range d.shards {
		st.Shards[i] = s.snapshotStats()
		st.Expired += st.Shards[i].Expired
		st.Cancelled += st.Shards[i].Cancelled
		st.Rounds += st.Shards[i].Rounds
		st.Residue += st.Shards[i].Residue
		st.Duplicates += st.Shards[i].Duplicates
		st.Crashes += st.Shards[i].Crashes
		st.Steps += st.Shards[i].Steps
		st.Work += st.Shards[i].Work
		st.StolenJobs += st.Shards[i].Stolen
		st.SubmitBlockedNanos += st.Shards[i].SubmitBlockedNanos
		for b, n := range st.Shards[i].EffHist {
			st.EffHist[b] += n
		}
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.JobsPerSec = float64(st.Performed) / secs
	}
	return st
}
