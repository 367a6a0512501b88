package conc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"atmostonce/internal/core"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// RuntimeOptions configures a persistent KKβ execution pool.
type RuntimeOptions struct {
	// M is the number of worker goroutines (the algorithm's m processes).
	M int
	// Capacity is the largest round size the pool can execute: every round
	// must satisfy m ≤ k ≤ Capacity. It bounds the round state, it does
	// not size it: the registers, logs and stamps are built by the first
	// round and grow, doubling, with the largest round run so far.
	Capacity int
	// Beta is KKβ's termination parameter (0 = m).
	Beta int
	// Jitter injects random runtime.Gosched calls into the worker loops to
	// diversify interleavings; Seed makes the injection deterministic per
	// worker.
	Jitter bool
	Seed   int64
	// Flush, when non-nil, is invoked by each worker (1-based id) after
	// its step loop ends — normal termination AND injected crash alike —
	// and before the round settles, so per-worker work a payload deferred
	// (the dispatcher's group-commit journal claims) is completed inside
	// the round that produced it. It runs on the worker's goroutine; the
	// round is not considered settled until every worker's Flush returns.
	Flush func(worker int)
}

// RoundResult reports one executed round. The struct and its Unperformed
// slice are owned by the Runtime and reused: they are valid until the next
// RunRound call.
type RoundResult struct {
	// Performed is the number of distinct jobs executed this round.
	Performed int
	// Duplicates counts do events beyond the first per job; nonzero means
	// an at-most-once violation (always 0, Lemma 4.1).
	Duplicates int
	// Crashed is the number of workers that actually crashed this round
	// (counted at the stop action, not at spawn — a worker whose algorithm
	// terminates before reaching its crash step did not crash).
	Crashed int
	// Steps is the total number of actions taken by all workers.
	Steps uint64
	// Work is the total work in the paper's cost model.
	Work uint64
	// Unperformed lists the job ids (1..k) left undone, ascending: the
	// residue a round-based caller carries into its next round.
	Unperformed []int
}

// Runtime is a persistent worker pool executing plain KKβ rounds: m
// long-lived goroutines over one reusable register file, a private
// in-process AtomicMem: the next/done registers coordinate the workers of
// one round and mean nothing to anyone else, so they never leave process
// memory (what must outlive the process is the caller's business — the
// dispatcher's journal, internal/dispatch/durable.go). Where
// Run spawns goroutines and allocates shared memory per call, a Runtime is
// built once and executes any number of rounds; between rounds it re-zeroes
// only the registers the previous round dirtied and resets the warm
// processes in place, so once the register file has grown to the rounds it
// is given, the round path performs no heap allocation. This is the
// substrate the streaming dispatcher
// (internal/dispatch) schedules its shards on.
//
// A Runtime is NOT safe for concurrent use: rounds are executed one at a
// time by a single orchestrating goroutine.
type Runtime struct {
	m      int
	cap    int
	beta   int
	jitter bool
	seed   int64
	flush  func(worker int)

	// The round state, for rounds of up to lay.RowLen jobs (0 before the
	// first round); grow rebuilds it with the workers parked.
	mem   shmem.Mem
	lay   core.Layout
	procs []*core.Proc
	logs  []*eventLog

	// Per-round inputs, written by RunRound before the workers are kicked
	// (the start-channel send publishes them).
	fn         func(worker, job int)
	crashAfter []uint64

	start   []chan struct{}
	wg      sync.WaitGroup
	steps   []uint64
	crashed atomic.Int64
	closed  bool

	round       uint64
	stamp       []uint64 // stamp[j] == round marks job j performed this round
	unperformed []int
	res         RoundResult
}

// NewRuntime builds the pool: m parked worker goroutines and no round
// state — the first round builds it (see grow). Close releases the
// goroutines.
func NewRuntime(o RuntimeOptions) (*Runtime, error) {
	if o.M < 1 || o.Capacity < o.M {
		return nil, fmt.Errorf("%w: capacity=%d m=%d", errValidate, o.Capacity, o.M)
	}
	r := &Runtime{
		m:      o.M,
		cap:    o.Capacity,
		beta:   o.Beta,
		jitter: o.Jitter,
		seed:   o.Seed,
		flush:  o.Flush,
		steps:  make([]uint64, o.M),
		procs:  make([]*core.Proc, o.M),
		logs:   make([]*eventLog, o.M),
		start:  make([]chan struct{}, o.M),
		// A round without crashes leaves at most β+m−2 jobs (Theorem 4.4).
		unperformed: make([]int, 0, max(o.Beta, o.M)+o.M),
	}
	for i := 0; i < o.M; i++ {
		r.logs[i] = &eventLog{pid: i + 1, rt: r}
		r.start[i] = make(chan struct{}, 1)
		go r.workerLoop(i)
	}
	return r, nil
}

// grow rebuilds the round state for rounds of up to k jobs: the next power
// of two ≥ k, capped at Capacity. Log buffers and (in NewProc) the
// FREE/DONE/TRY bitmaps are sized for it up front, so every later round of
// that size or less reuses them and allocates nothing. The registers are
// fresh, so there is nothing to re-zero. It runs between rounds, with every
// worker parked.
func (r *Runtime) grow(k int) {
	size := min(1<<bits.Len(uint(k-1)), r.cap)
	// Padded: each worker's write-hot next cell gets its own cache line,
	// so neighboring workers stop false-sharing on the set_next path.
	r.lay = core.Layout{M: r.m, RowLen: size}.Padded()
	r.mem = shmem.NewAtomic(r.lay.Size())
	r.stamp = make([]uint64, size+1)
	events := make([]sim.Event, r.m*size) // a worker does at most size jobs a round
	for i, l := range r.logs {
		l.events = events[i*size : i*size : (i+1)*size]
		r.procs[i] = core.NewProc(core.ProcOptions{
			ID: i + 1, M: r.m, Beta: r.beta, Layout: r.lay, Mem: r.mem, Universe: size, Sink: l,
		})
	}
}

// workerLoop is the persistent per-worker goroutine: park on the start
// channel, step the warm process to completion (or injected crash), report,
// park again. The process is re-read per round: grow may have replaced it
// (the start send publishes the new one).
func (r *Runtime) workerLoop(idx int) {
	var rng *rand.Rand
	if r.jitter {
		rng = rand.New(rand.NewSource(r.seed + int64(idx)))
	}
	for range r.start[idx] {
		p := r.procs[idx]
		var crashAt uint64
		if r.crashAfter != nil {
			crashAt = r.crashAfter[idx]
		}
		var steps uint64
		for p.Status() == sim.Running {
			if crashAt > 0 && steps >= crashAt {
				p.Crash()
				r.crashed.Add(1)
				break
			}
			p.Step()
			steps++
			if rng != nil && rng.Intn(8) == 0 {
				runtime.Gosched()
			}
		}
		r.steps[idx] = steps
		if r.flush != nil {
			// Even a crashed worker flushes: an injected crash stops the
			// ALGORITHM mid-round (the paper's model), not the process, and
			// jobs the worker already claimed are marked done in the round —
			// their deferred payloads must still run, or a live process
			// would report jobs performed whose payloads never executed.
			r.flush(idx + 1)
		}
		r.wg.Done()
	}
}

// M returns the number of workers.
func (r *Runtime) M() int { return r.m }

// Capacity returns the largest admissible round size.
func (r *Runtime) Capacity() int { return r.cap }

// RunRound executes one KKβ round over the dense job set [1..k]: it
// re-zeroes the dirty registers, resets the warm processes, kicks the
// parked workers and waits for the round to settle. fn, when non-nil, is
// the job payload (invoked at most once per job with the performing worker
// id). crashAfter, when non-nil, injects per-worker crashes exactly as
// Options.CrashAfter; crashed workers are revived on the next round.
//
// The returned RoundResult is reused across rounds — callers must consume
// it (in particular Unperformed) before calling RunRound again.
func (r *Runtime) RunRound(k int, fn func(worker, job int), crashAfter []uint64) (*RoundResult, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: runtime is closed", errValidate)
	}
	if k < r.m || k > r.cap {
		return nil, fmt.Errorf("%w: round size %d outside [m=%d..capacity=%d]", errValidate, k, r.m, r.cap)
	}
	if crashAfter != nil {
		if len(crashAfter) != r.m {
			return nil, fmt.Errorf("%w: CrashAfter has %d entries for m=%d", errValidate, len(crashAfter), r.m)
		}
		alive := 0
		for _, c := range crashAfter {
			if c == 0 {
				alive++
			}
		}
		if alive == 0 {
			return nil, fmt.Errorf("%w: all processes crash (need f < m)", errValidate)
		}
	}

	r.prepare(k, fn, crashAfter)
	r.wg.Add(r.m)
	for _, ch := range r.start {
		ch <- struct{}{}
	}
	r.wg.Wait()
	return r.collect(k), nil
}

// prepare re-zeroes the registers dirtied by the previous round — or, for
// a round larger than any before it, grows fresh ones — and resets
// processes and logs. It runs strictly between rounds (before the start
// send), so it may read process state freely.
func (r *Runtime) prepare(k int, fn func(worker, job int), crashAfter []uint64) {
	r.fn = fn
	r.crashAfter = crashAfter
	if k > r.lay.RowLen {
		r.grow(k)
	} else {
		for q := 1; q <= r.m; q++ {
			r.mem.Write(r.lay.NextAddr(q), 0)
			// Row q was written by process q at positions 1..pos-1.
			dirty := r.procs[q-1].PosOf(q) - 1
			for idx := 1; idx <= dirty; idx++ {
				r.mem.Write(r.lay.DoneAddr(q, idx), 0)
			}
		}
	}
	for i, p := range r.procs {
		p.Reset(k)
		r.logs[i].events = r.logs[i].events[:0]
	}
	r.crashed.Store(0)
}

// collect merges the per-worker logs into the reusable RoundResult.
func (r *Runtime) collect(k int) *RoundResult {
	r.round++
	epoch := r.round
	res := &r.res
	res.Performed, res.Duplicates = 0, 0
	res.Steps, res.Work = 0, 0
	for i, l := range r.logs {
		res.Steps += r.steps[i]
		res.Work += r.procs[i].Work()
		for _, e := range l.events {
			if r.stamp[e.Job] == epoch {
				res.Duplicates++
			} else {
				r.stamp[e.Job] = epoch
				res.Performed++
			}
		}
	}
	r.unperformed = r.unperformed[:0]
	for j := 1; j <= k; j++ {
		if r.stamp[j] != epoch {
			r.unperformed = append(r.unperformed, j)
		}
	}
	res.Unperformed = r.unperformed
	res.Crashed = int(r.crashed.Load())
	return res
}

// Events appends the last round's do events to dst, grouped by worker.
// Valid until the next RunRound call.
func (r *Runtime) Events(dst []sim.Event) []sim.Event {
	for _, l := range r.logs {
		dst = append(dst, l.events...)
	}
	return dst
}

// Close parks the pool permanently, releasing the worker goroutines. It
// must not be called concurrently with RunRound.
func (r *Runtime) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, ch := range r.start {
		close(ch)
	}
}
