package dispatch

import (
	"context"
	"log/slog"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"atmostonce/internal/conc"
	"atmostonce/internal/membackend"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
)

// shard is one independent KKβ instance: a persistent worker pool, a
// pending-job deque and the loop that cuts rounds. The loop goroutine is
// the only round orchestrator, so everything it touches between rounds
// (batch, runtime, the adaptive-controller state) needs no lock; the
// deque, the reservation counter and stats are shared with submitters
// and Stats and guarded by mu.
type shard struct {
	d  *Dispatcher
	id int
	m  int
	rt *conc.Runtime

	// Backpressure shape, fixed at construction: depth is the bounded
	// queue capacity (0 = unbounded) and target the adaptive
	// controller's per-round latency goal in nanoseconds (≤ 0 disables).
	depth  int
	target float64

	// Durable state (nil/zero for in-process shards): the journal
	// backend and the words in a journal row. See durable.go for the
	// register-file layout. The round's own registers are never here —
	// rt keeps them in process memory. The journal goes through the
	// backend's WriteAcked, so record-then-do holds across the network,
	// not just across local process death.
	backend membackend.Backend
	durable bool
	jwords  int

	// Claim state of a durable shard: each worker claims up to jbatch
	// (Config.JournalBatch, default 1) jobs — marked done in the round,
	// payloads deferred — then flushClaims journals all of them, acked,
	// and runs the payloads. claims[p-1] is worker p's open claim buffer
	// and row shadow, touched only by worker p during a round and by
	// nobody between rounds (the runtime's Flush hook drains the buffer
	// before the round settles).
	jbatch int
	claims []workerClaims

	// count points at this shard's padded submitted/performed counters
	// (d.counts[id]); submit paths and round completion touch only these,
	// never a dispatcher-global counter.
	count *shardCount

	mu        sync.Mutex
	cond      *sync.Cond // queue became non-empty (or shard closed)
	notFull   *sync.Cond // queue space freed, for Block-policy submitters
	q         pqueue
	reserved  int // slots reserved but not yet enqueued (FailFast, Block, steals)
	inflight  int // jobs of the round in flight, still holding their slots
	closed    bool
	abandoned bool
	stats     ShardStats

	// batch holds the jobs of the round in flight, indexed by local job id
	// minus one; slots past the real batch are zero (round padding), and
	// finishRound zeroes the rest, so between rounds it references nothing.
	// takeBatch grows it, doubling, to the largest round cut so far. Only
	// the loop goroutine and — during a round — the pool workers touch it.
	batch  []entry
	execFn func(worker, local int)
	done   chan struct{}

	// Adaptive round controller (loop goroutine only): ewmaPerJob is the
	// smoothed wall-clock cost per batch slot of recent rounds, lastTaken
	// the size of the last round's real batch — the next round is capped
	// at target/ewmaPerJob and at 2·lastTaken (ramp smoothing), floored
	// at m, so round size follows observed load instead of pinning at
	// MaxBatch.
	ewmaPerJob float64
	lastTaken  int
	// lastRoundLog (loop goroutine only) is the Unix-nano stamp of the
	// last dispatch_round record, for the once-per-second heartbeat gate
	// in observeRound.
	lastRoundLog int64

	// Observability mirrors (see obs.go): lastTakenA shadows lastTaken
	// atomically so the round-size gauge never races the loop goroutine;
	// journaled counts journaled jobs for the journal-writes counter.
	lastTakenA atomic.Int64
	journaled  atomic.Uint64

	// Loop-goroutine scratch. transit carries a steal's entries from the
	// victim's lock to the thief's, on pooled blocks; the two slices are
	// dropped after a use that grew them past a block, so a deadline storm
	// does not pin its size.
	transit ring
	dueBuf  []entry    // deadline-due entries pulled at round assembly
	expired []resolved // expired and cancelled jobs, resolved outside the lock
}

// newShard builds one shard. With a durable backend it also performs
// the recovery scan, adding the job ids a previous process incarnation
// already performed to d.recovered.
func newShard(d *Dispatcher, id int) (*shard, error) {
	s := &shard{
		d:      d,
		id:     id,
		m:      d.cfg.Workers,
		count:  &d.counts[id],
		depth:  d.cfg.QueueDepth,
		target: float64(d.cfg.RoundTarget),
		done:   make(chan struct{}),
	}
	opts := conc.RuntimeOptions{
		M:        d.cfg.Workers,
		Capacity: d.cfg.MaxBatch,
		Beta:     d.cfg.Beta,
		Jitter:   d.cfg.Jitter,
		Seed:     d.cfg.Seed + int64(id)*1_000_003,
	}
	if d.cfg.NewMem != nil {
		if err := s.openDurable(&d.cfg); err != nil {
			return nil, err
		}
		// Workers with an open claim buffer at the end of their step loop
		// (round drained, or injected crash) flush it before the round
		// settles.
		opts.Flush = s.flushClaims
	}
	rt, err := conc.NewRuntime(opts)
	if err != nil {
		if s.backend != nil {
			s.backend.Close()
		}
		return nil, err
	}
	s.rt = rt
	s.cond = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	s.execFn = s.exec
	return s, nil
}

// snapshotStats copies the shard's counters and its queue depth inside
// ONE critical section of s.mu. Every reader of per-shard state —
// Stats() and the obs gauge/counter funcs — goes through this lock, so
// a snapshot can never pair a stale QueueDepth with fresher round
// counters (or vice versa): the depth is exactly the queue the counters
// describe.
func (s *shard) snapshotStats() ShardStats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = s.q.len()
	s.mu.Unlock()
	return st
}

// jobsDone publishes n resolved jobs (performed, expired or recovered)
// on this shard's padded counter and wakes parked Flush callers, if any.
func (s *shard) jobsDone(n int) {
	if n <= 0 {
		return
	}
	s.count.performed.Add(uint64(n))
	s.d.wakeFlushers()
}

// exec is the round payload: local job ids map to batch slots; padding
// slots carry no Runner. Durable shards claim the job into the worker's
// claim buffer and defer both the journal write and the payload to the
// flush (record-then-do; see durable.go) — at JournalBatch 1 the flush
// follows at once.
func (s *shard) exec(worker, local int) {
	e := &s.batch[local-1]
	if e.run == nil {
		return // round padding
	}
	tr := s.d.tr
	if tr != nil {
		tr.Record(e.id, obs.TraceStarted, s.id)
	}
	if s.durable {
		s.claim(worker, local)
		return
	}
	s.runPayload(e)
}

// runPayload runs one entry's Runner under a context carrying its
// deadline. Run's error is the Runner's to keep (see Runner.Run).
func (s *shard) runPayload(e *entry) {
	ctx := context.Background()
	if e.dl != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, e.dl))
		defer cancel()
	}
	_ = e.run.Run(ctx)
}

// space reports the free queue slots; unbounded queues are always open.
// Caller holds s.mu. Reservations (FailFast submissions, in-progress
// steals) count as occupied so a reserved batch can never be beaten to
// its slots — and so do the in-flight round's jobs, which keep holding
// their slots until finishRound resolves them: the round may requeue
// any of them as residue, and a slot freed early would let submitters
// refill underneath and push the requeue past QueueDepth.
func (s *shard) space() int {
	if s.depth <= 0 {
		return math.MaxInt
	}
	free := s.depth - s.q.len() - s.reserved - s.inflight
	if free < 0 {
		free = 0
	}
	return free
}

// waitSpace parks the caller until at least one queue slot is free,
// folding the blocked time into SubmitBlockedNanos. Caller holds s.mu;
// returns with s.mu held and space() ≥ 1 — or with the shard abandoned,
// the one case where space can never free (abandon stops the loop
// without the closeMu barrier Close uses; the caller then dumps its
// entries into the dead queue, exactly like memory of a killed
// process). The shard loop keeps draining while submitters wait (Close
// stops it only after all in-flight submitters finish), so the wait
// always terminates.
func (s *shard) waitSpace() {
	if s.space() > 0 || s.abandoned {
		return
	}
	// The loop may be parked waiting for work that is already queued;
	// make sure it sees it before we park on the opposite condition.
	s.cond.Signal()
	t0 := time.Now()
	for s.space() == 0 && !s.abandoned {
		s.notFull.Wait()
	}
	s.stats.SubmitBlockedNanos += uint64(time.Since(t0))
}

// reserveWait claims one queue slot for a Block-policy submission,
// parking until space frees; the blocked time is folded into
// SubmitBlockedNanos. The park is ABORTABLE because it happens at
// admission, before any job id is consumed: a cancelled or expired ctx
// returns its error, and a concurrent Close returns ErrClosed (Close
// broadcasts notFull after flipping closed, and both checks run under
// s.mu, so the wakeup cannot be lost) — in both cases the submission
// burns nothing. An abandoned shard grants the reservation: the dead
// queue swallows the entry, like memory of a killed process.
func (s *shard) reserveWait(ctx context.Context) error {
	s.mu.Lock()
	if s.space() > 0 || s.abandoned {
		s.reserved++
		s.mu.Unlock()
		return nil
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.notFull.Broadcast()
			s.mu.Unlock()
		})
	}
	// The loop may be parked waiting for work that is already queued;
	// make sure it sees it before we park on the opposite condition.
	s.cond.Signal()
	t0 := time.Now()
	var err error
	for {
		if s.d.closed.Load() {
			err = ErrClosed
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		if s.space() > 0 || s.abandoned {
			s.reserved++
			break
		}
		s.notFull.Wait()
	}
	s.stats.SubmitBlockedNanos += uint64(time.Since(t0))
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	return err
}

// tryReserve claims k queue slots for a FailFast submission without
// enqueueing yet, so multi-shard batches can be accepted all-or-nothing
// before any id is consumed. It fails if fewer than k slots are free.
func (s *shard) tryReserve(k int) bool {
	s.mu.Lock()
	ok := s.space() >= k
	if ok {
		s.reserved += k
	}
	s.mu.Unlock()
	return ok
}

// unreserve releases reserved slots that will not be used (rejected
// batch, journal-full, or journal-recovered jobs).
func (s *shard) unreserve(k int) {
	s.mu.Lock()
	s.reserved -= k
	s.notFull.Broadcast()
	s.mu.Unlock()
}

// feed appends n entries produced by get(i); reserved marks slots
// claimed via tryReserve (pushed in one pass), otherwise the call feeds
// them in as space frees, signaling the loop so it can drain underneath
// a parked submitter. The enqueue paths are only reachable while the
// dispatcher's closeMu barrier guarantees the shard loop is still
// running (Close waits for in-flight submitters before stopping
// shards), so enqueued jobs are always drained.
func (s *shard) feed(n int, get func(i int) entry, reserved bool) {
	s.mu.Lock()
	if reserved {
		s.reserved -= n
	}
	for i := 0; i < n; {
		free := n - i
		if !reserved {
			s.waitSpace()
			if free = s.space(); s.abandoned {
				free = n - i // dead shard: dump the rest, like a killed process
			}
		}
		for ; free > 0 && i < n; free-- {
			s.q.pushBack(get(i))
			i++
		}
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// enqueueOne appends one entry — feed's single-job case, open-coded so
// the Do hot path builds no closure (the capture of e is a heap
// allocation per submission; TestDoAllocs pins Do at one).
func (s *shard) enqueueOne(e entry, reserved bool) {
	s.mu.Lock()
	if reserved {
		s.reserved--
	} else {
		s.waitSpace()
	}
	s.q.pushBack(e)
	s.cond.Signal()
	s.mu.Unlock()
}

// stop marks the shard closed and wakes the loop so it can drain and exit.
func (s *shard) stop() {
	s.mu.Lock()
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
}

// closeBackend syncs and closes the shard's durable backend, if any.
func (s *shard) closeBackend() error {
	if s.backend == nil {
		return nil
	}
	return s.backend.Close()
}

// abandon simulates process death at a round boundary (the paper's
// crash model stops processes between actions): the loop exits after
// the round in flight WITHOUT draining the queue, leaving the durable
// backend exactly as a killed process would. Crash-recovery tests use
// it; production code paths never do.
func (s *shard) abandon() {
	s.mu.Lock()
	s.abandoned = true
	s.cond.Signal()
	s.notFull.Broadcast() // release Block-policy submitters parked on a dead queue
	s.mu.Unlock()
}

// loop is the shard's round engine: cut an adaptively sized batch off
// the deque (stealing from the deepest sibling when idle), execute it as
// one KKβ round (padded up to m when the batch is short), push the
// unperformed residue back onto the FRONT of the deque, fire the
// performed jobs' completions, repeat. On close it drains the deque —
// including residue and anything stolen — before exiting.
func (s *shard) loop() {
	defer close(s.done)
	for {
		n := s.takeBatch()
		if n == 0 {
			return
		}
		k := n
		if k < s.m {
			k = s.m // KKβ needs n ≥ m; slots n..k-1 are no-op padding
		}
		round := int(s.stats.Rounds)
		t0 := time.Now()
		res, err := s.rt.RunRound(k, s.execFn, s.crashVector(round))
		if err != nil {
			// Unreachable: k and the crash vector are validated here.
			panic("dispatch: " + err.Error())
		}
		s.observeRound(n, k, time.Since(t0), res.Crashed)
		s.jobsDone(s.finishRound(n, res))
	}
}

// roundLimit is the adaptive controller's cut: how many jobs the next
// round may take. MaxBatch is the cap (it bounds the register file), m
// the floor (KKβ needs n ≥ m); in between the limit tracks the latency
// target — at the observed EWMA per-job cost, a round should finish
// within roughly Config.RoundTarget — and ramps at most 2× the previous
// round, so a burst after an idle stretch doesn't jump straight from a
// trickle round to MaxBatch on a stale cost estimate.
func (s *shard) roundLimit() int {
	limit := s.d.cfg.MaxBatch
	if s.target > 0 && s.ewmaPerJob > 0 {
		if c := int(s.target / s.ewmaPerJob); c < limit {
			limit = c
		}
	}
	if s.lastTaken > 0 {
		if r := 2 * s.lastTaken; r < limit {
			limit = r
		}
	}
	if limit < s.m {
		limit = s.m
	}
	return limit
}

// observeRound feeds one executed round back into the controller: k
// slots (real jobs plus padding) took dur, so the per-slot cost estimate
// is dur/k, smoothed 1:3 into the EWMA.
func (s *shard) observeRound(n, k int, dur time.Duration, crashed int) {
	s.lastTaken = n
	per := float64(dur) / float64(k)
	if s.ewmaPerJob == 0 {
		s.ewmaPerJob = per
	} else {
		s.ewmaPerJob = 0.75*s.ewmaPerJob + 0.25*per
	}
	if s.d.roundHist != nil {
		// The round histogram reuses the duration the controller already
		// measured — instrumentation adds one record per round, not one
		// per job.
		s.d.roundHist.Observe(uint64(dur))
		s.lastTakenA.Store(int64(n))
	}
	// dispatch_round is sampled, not per-round, for retention and not for
	// cost: a ring record is free (typed attrs, copied into its slot),
	// but the ring has 256 slots and a shard at steady state cuts
	// thousands of rounds per second — unsampled they would lap every
	// other event out within a blink. The flight ring gets one heartbeat
	// per shard per second, every crashed round (rare, and the forensically
	// interesting ones), and every round when the operator asked for full
	// rate with AMO_LOG=debug.
	if now := time.Now().UnixNano(); crashed > 0 ||
		now-s.lastRoundLog >= int64(time.Second) ||
		eventlog.SinkEnabled(slog.LevelDebug) {
		s.lastRoundLog = now
		eventlog.Logger().LogAttrs(context.Background(), slog.LevelDebug, "dispatch_round",
			slog.Int("shard", s.id), slog.Int("jobs", n), slog.Int("slots", k),
			slog.Duration("dur", dur), slog.Int("crashed", crashed))
	}
}

// promoWindow is the deadline-promotion lookahead at round assembly,
// derived from the adaptive controller's own estimate: roughly two
// rounds of work at the observed per-slot cost (floored at the latency
// target). A queued job due sooner than that cannot afford to wait its
// FIFO-within-class turn — it is pulled ahead in deadline order — and a
// job already past its deadline is expired instead of started.
func (s *shard) promoWindow(limit int) int64 {
	est := s.target
	if s.ewmaPerJob > 0 {
		if e := s.ewmaPerJob * float64(limit); e > est {
			est = e
		}
	}
	if est <= 0 {
		est = float64(DefaultRoundTarget)
	}
	return int64(2 * est)
}

// takeBatch blocks until jobs are pending (or the shard is closed and
// drained), then moves up to roundLimit of them into the batch buffer —
// highest priority class first, FIFO within a class, with deadline-due
// jobs promoted ahead of everything and already-expired jobs resolved
// here (never started; see Task.Deadline). Before parking on an empty
// queue it tries to steal a slice of the deepest sibling queue. It
// returns the number of real jobs taken; 0 means exit.
func (s *shard) takeBatch() int {
	for {
		s.mu.Lock()
		for s.q.len() == 0 && !s.closed && !s.abandoned {
			// Idle: claim work from the deepest sibling before parking.
			s.mu.Unlock()
			stole := s.stealWork()
			s.mu.Lock()
			if stole > 0 || s.q.len() > 0 || s.closed || s.abandoned {
				continue
			}
			s.cond.Wait()
		}
		if s.q.len() == 0 || s.abandoned {
			s.mu.Unlock()
			return 0
		}
		limit := s.roundLimit()
		// The batch holds the round and its padding; it grows, doubling up
		// to MaxBatch, only for a round larger than any before it.
		if need := max(min(limit, s.q.len()), s.m); need > len(s.batch) {
			s.batch = make([]entry, min(1<<bits.Len(uint(need-1)), s.d.cfg.MaxBatch))
		}
		now := time.Now().UnixNano()
		n := 0
		s.expired = s.expired[:0]
		// Deadline pass: pull everything due within the promotion window
		// out of the rings (in deadline order). Entries already past
		// their deadline expire — removed from the queue, never started —
		// and the rest lead the batch. Overflow beyond the round limit
		// returns to the front of its class, still ahead of its peers.
		if md := s.q.minDeadline(); md != 0 && md <= now+s.promoWindow(limit) {
			s.dueBuf = s.q.extractDue(now+s.promoWindow(limit), s.dueBuf[:0])
			n = s.leadDue(n, limit, now)
		}
		// Priority pass: drain High, then Normal, then Low — EDF within
		// any class that cannot be drained whole this round (takeClass).
		for ri := 0; ri < numRings && n < limit; ri++ {
			n = s.takeClass(ri, n, limit, now)
		}
		// s.expired holds this assembly's casualties — deadline expiries
		// AND ctx cancellations; both resolve without starting, but are
		// counted apart.
		nExp := len(s.expired)
		if nExp > 0 {
			nCan := 0
			for i := range s.expired {
				if s.expired[i].r.Cancelled {
					nCan++
				}
			}
			s.stats.Expired += uint64(nExp - nCan)
			s.stats.Cancelled += uint64(nCan)
			if s.depth > 0 {
				s.notFull.Broadcast() // expired/cancelled jobs freed their queue slots
			}
		}
		// The popped jobs keep holding their queue slots (inflight) until
		// finishRound requeues the residue and frees the performed ones;
		// freeing them here would let submitters refill underneath the
		// round and push the residue requeue past QueueDepth.
		s.inflight = n
		s.mu.Unlock()
		if nExp > 0 {
			// Each expired or cancelled job resolves exactly once, outside
			// the lock, and counts toward Flush like any other resolution.
			s.traceExpired(s.expired)
			for i := range s.expired {
				s.expired[i].e.fire(s.expired[i].r)
			}
			clear(s.expired) // an idle shard must not pin runners, ctxs or errors
			if cap(s.expired) > blockLen {
				s.expired = nil
			}
			s.jobsDone(nExp)
		}
		if n == 0 {
			continue // everything due had expired; wait for more work
		}
		return n
	}
}

// takeClass moves entries of priority ring ri into the batch (from slot
// n up to limit) and returns the new n. FIFO is the order within a
// class — except when the ring holds deadlined entries AND cannot be
// drained whole this round, the only case where intra-class order can
// matter: then the deadlined entries are pulled ahead in deadline order
// (EDF within the class), so of two same-priority deadlined jobs the
// earlier deadline always runs in the earlier round. The ring's minDL
// bound keeps the common all-FIFO path scan-free; already-expired
// entries resolve here exactly like the promotion pass's. Caller holds
// s.mu.
func (s *shard) takeClass(ri, n, limit int, now int64) int {
	r := &s.q.rings[ri]
	if r.minDL != 0 && r.n > limit-n {
		// Truncation with deadlines present: extract every deadlined
		// entry (deadline-sorted), lead the class with the earliest, and
		// push the overflow back to the FRONT in reverse so deadline
		// order survives into the next round's assembly.
		s.dueBuf = s.q.extractDeadlined(ri, s.dueBuf[:0])
		n = s.leadDue(n, limit, now)
	}
	for n < limit && r.n > 0 {
		e := s.q.popRing(ri)
		if e.dl != 0 && e.dl <= now {
			s.expire(e, JobResult{ID: e.id, Expired: true, Err: context.DeadlineExceeded})
			continue
		}
		if cerr := e.cancelErr(); cerr != nil {
			s.expire(e, JobResult{ID: e.id, Cancelled: true, Err: cerr})
			continue
		}
		s.batch[n] = e
		n++
	}
	return n
}

// leadDue moves s.dueBuf's deadline-sorted entries into the batch from
// slot n up to limit and returns the new n: entries past their deadline
// or with a dead ctx expire instead, and the overflow returns to the
// FRONT of its class, in reverse (deadline order survives). Caller holds s.mu.
func (s *shard) leadDue(n, limit int, now int64) int {
	overflow := 0
	for _, e := range s.dueBuf {
		switch cerr := e.cancelErr(); {
		case e.dl <= now:
			s.expire(e, JobResult{ID: e.id, Expired: true, Err: context.DeadlineExceeded})
		case cerr != nil:
			s.expire(e, JobResult{ID: e.id, Cancelled: true, Err: cerr})
		case n < limit:
			s.batch[n] = e
			n++
		default:
			s.dueBuf[overflow] = e
			overflow++
		}
	}
	for i := overflow - 1; i >= 0; i-- {
		s.q.pushFront(s.dueBuf[i])
	}
	clear(s.dueBuf) // don't pin payloads past the transfer
	if cap(s.dueBuf) > blockLen {
		s.dueBuf = nil
	}
	return n
}

// expire takes e out of play at round assembly — deadline passed or
// submission ctx dead, never started — keeping it and its result for
// takeBatch to fire once the lock is dropped. Caller holds s.mu.
func (s *shard) expire(e entry, r JobResult) {
	s.expired = append(s.expired, resolved{e, r})
}

// stealWork claims a slice of the deepest sibling queue for this (idle)
// shard — from the BACK of the victim's LOWEST non-empty priority ring:
// the work the victim would get to last, so a steal never delays the
// victim's own high-priority jobs. Stolen entries keep their ids,
// priorities, deadlines and completions (they re-queue into the same
// class here, and whoever performs them fires them); the
// thief journals whatever it performs under its OWN backend and lease,
// and the recovery scan unions all shards' journals, so at-most-once and
// fencing are untouched by migration. The take is capped at MaxBatch and
// at the thief's own free capacity — reserved up front, so concurrent
// submitters cannot race the transfer past QueueDepth. Locks are taken
// one shard at a time (self, victim, self), so thieves can never
// deadlock against each other.
func (s *shard) stealWork() int {
	shards := s.d.shards
	if len(shards) < 2 {
		return 0
	}
	var victim *shard
	deepest := 1 // a steal must leave the victim work: need ≥ 2 pending
	for _, v := range shards {
		if v == s {
			continue
		}
		v.mu.Lock()
		l := v.q.len()
		v.mu.Unlock()
		if l > deepest {
			deepest, victim = l, v
		}
	}
	if victim == nil {
		return 0
	}
	// Reserve the thief's own free capacity before touching the victim:
	// submitters may refill this queue while the victim is being robbed,
	// and an unreserved steal landing on top of them would push a
	// bounded queue past QueueDepth.
	max := s.d.cfg.MaxBatch
	if s.depth > 0 {
		s.mu.Lock()
		if free := s.space(); free < max {
			max = free
		}
		s.reserved += max
		s.mu.Unlock()
		if max == 0 {
			return 0
		}
	}
	victim.mu.Lock()
	// Re-read under the lock (the scan was racy). Take the victim's whole
	// lowest non-empty ring when it has higher-priority work of its own;
	// when that ring IS all its work, take half, leaving it something.
	k := victim.q.lowest()
	if k == victim.q.len() {
		k /= 2
	}
	if k > max {
		k = max
	}
	if k > 0 {
		victim.q.stealBack(k, &s.transit)
		if victim.depth > 0 {
			victim.notFull.Broadcast()
		}
	}
	victim.mu.Unlock()
	if tr := s.d.tr; tr != nil {
		for i := 0; i < k; i++ {
			tr.Record(s.transit.at(i).id, obs.TraceStolen, s.id)
		}
	}
	s.mu.Lock()
	if s.depth > 0 {
		s.reserved -= max
		if k < max {
			s.notFull.Broadcast() // give unused reservation back to submitters
		}
	}
	for s.transit.n > 0 {
		s.q.pushBack(s.transit.popFront())
	}
	s.stats.Stolen += uint64(k)
	s.mu.Unlock()
	if k > 0 {
		eventlog.Logger().LogAttrs(context.Background(), slog.LevelDebug, "dispatch_steal",
			slog.Int("shard", s.id), slog.Int("victim", victim.id), slog.Int("jobs", k))
	}
	return k
}

// crashVector asks the configured plan for this round's crash injection
// and sanitizes it (length m, at least one survivor).
func (s *shard) crashVector(round int) []uint64 {
	plan := s.d.cfg.CrashPlan
	if plan == nil {
		return nil
	}
	v := plan(s.id, round)
	if len(v) != s.m {
		return nil
	}
	for _, c := range v {
		if c == 0 {
			return v
		}
	}
	return nil
}

// finishRound requeues the real residue at the front of its priority
// ring and folds the round into the shard stats under s.mu, then — the
// lock dropped — fires the performed jobs' completions straight from
// their batch slots, in slot order, and zeroes the batch. It returns the
// number of real jobs performed this round.
func (s *shard) finishRound(n int, res *conc.RoundResult) int {
	tr := s.d.tr
	s.mu.Lock()
	requeued := 0
	for i := len(res.Unperformed) - 1; i >= 0; i-- {
		if local := res.Unperformed[i]; local <= n {
			s.q.pushFront(s.batch[local-1])
			if tr != nil {
				tr.Record(s.batch[local-1].id, obs.TraceRequeued, s.id)
			}
			requeued++
		}
	}
	// The round's slots are resolved: residue went back to the queue,
	// the rest are free for parked submitters.
	s.inflight = 0
	if s.depth > 0 {
		s.notFull.Broadcast()
	}
	performed := n - requeued
	s.stats.Rounds++
	s.stats.Performed += uint64(performed)
	s.stats.Residue += uint64(requeued)
	s.stats.Duplicates += uint64(res.Duplicates)
	s.stats.Crashes += uint64(res.Crashed)
	s.stats.Steps += res.Steps
	s.stats.Work += res.Work
	s.stats.LastBatch = n
	s.stats.LastPerformed = performed
	s.stats.EffHist[effBucket(performed, n)]++
	s.mu.Unlock()
	if s.d.lossHist != nil {
		// Effectiveness loss of this round in ppm: 0 for a perfect round,
		// 1e6 would mean nothing performed (impossible — KKβ guarantees
		// n - m + 1 per round).
		s.d.lossHist.Observe(uint64(requeued) * 1_000_000 / uint64(n))
	}
	// The performed slots are 1..n minus the (ascending) unperformed
	// list; walk the two in lockstep. The batch is the loop goroutine's
	// alone between rounds, so no lock is held while completions run
	// (Resolved may re-enter Do on this very shard). One wall-clock read
	// covers the whole round's latency samples: the per-entry spread
	// inside a round is below the histogram's own bucket error.
	var end int64
	if s.d.latHist != nil {
		end = time.Now().UnixNano()
	}
	ui := 0
	for local := 1; local <= n; local++ {
		if ui < len(res.Unperformed) && res.Unperformed[ui] == local {
			ui++ // residue: its copy in the queue is the live one now
			continue
		}
		e := &s.batch[local-1]
		if e.t0 != 0 {
			// max: a wall-clock step backwards must not wrap the sample.
			s.d.latHist.Observe(uint64(max(end-e.t0, 0)))
		}
		if tr != nil {
			tr.Record(e.id, obs.TraceResolved, s.id)
		}
		e.fire(JobResult{ID: e.id})
	}
	// An idle shard must not pin its last round's runners until the next
	// job happens to arrive.
	clear(s.batch[:n])
	return performed
}
