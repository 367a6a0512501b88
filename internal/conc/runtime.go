package conc

import (
	"fmt"
	"math/bits"
	"sync"

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
	// not size it: the registers and do bitmaps are built by the first
	// round and grow, doubling, with the largest round run so far.
	Capacity int
	// Beta is KKβ's termination parameter (0 = m).
	Beta int
	// Flush, when non-nil, is invoked for each worker (1-based id) once
	// its part of the round ends — normal termination AND injected crash
	// alike — and before the round settles, so per-worker work a payload
	// deferred (the dispatcher's group-commit journal claims) is completed
	// inside the round that produced it. In a free round it runs on the
	// worker's goroutine as its step loop ends; in a scheduled one on the
	// caller's, for every worker in order, once the schedule ends. The
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
	// Crashed is the number of workers the round's adversary crashed (a
	// worker whose algorithm terminates within its step budget did not
	// crash); 0 in a free round.
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
	m     int
	cap   int
	beta  int
	flush func(worker int)

	// The round state, for rounds of up to lay.RowLen jobs (0 before the
	// first round); grow rebuilds it with the workers parked.
	mem   shmem.Mem
	lay   core.Layout
	procs []*core.Proc
	logs  []*doLog    // each runs the round's payload (the start send publishes it)
	marks []sim.Marks // the logs' do bitmaps (sim.NewMarks)

	start  []chan struct{}
	wg     sync.WaitGroup
	steps  []uint64
	closed bool

	tally       sim.Tally
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
		m:     o.M,
		cap:   o.Capacity,
		beta:  o.Beta,
		flush: o.Flush,
		steps: make([]uint64, o.M),
		logs:  make([]*doLog, o.M),
		start: make([]chan struct{}, o.M),
		// A round without crashes leaves at most β+m−2 jobs (Theorem 4.4).
		unperformed: make([]int, 0, max(o.Beta, o.M)+o.M),
	}
	for i := 0; i < o.M; i++ {
		r.logs[i] = new(doLog)
		r.start[i] = make(chan struct{}, 1)
		go r.workerLoop(i)
	}
	return r, nil
}

// grow rebuilds the round state for rounds of up to k jobs: the next power
// of two ≥ k, capped at Capacity. The do bitmaps and (in NewProcs) the
// FREE sets are sized for it up front, so every later round of that size
// or less reuses them and allocates nothing. The registers are fresh, so
// there is nothing to re-zero. It runs between rounds, with every worker
// parked.
func (r *Runtime) grow(k int) {
	size := min(1<<bits.Len(uint(k-1)), r.cap)
	// Padded: each worker's write-hot next cell gets its own cache line,
	// so neighboring workers stop false-sharing on the set_next path.
	r.lay = core.Layout{M: r.m, RowLen: size}.Padded()
	r.mem = shmem.NewAtomic(r.lay.Size())
	r.marks = sim.NewMarks(r.m, size)
	r.tally.Reset(size) // the merged set too, in one growth
	r.procs = core.NewProcs(core.ProcOptions{Beta: r.beta, Layout: r.lay, Mem: r.mem})
	for i, l := range r.logs {
		l.Marks = &r.marks[i]
		r.procs[i].SetSink(l)
	}
}

// workerLoop is the persistent per-worker goroutine of free rounds: park
// on the start channel, step the warm process to completion, flush, park
// again. The process is re-read per round: grow may have replaced it (the
// start send publishes the new one).
func (r *Runtime) workerLoop(idx int) {
	for range r.start[idx] {
		r.steps[idx] = stepAll(r.procs[idx])
		if r.flush != nil {
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
// re-zeroes the dirty registers, resets the warm processes, runs the
// round and waits for it to settle. fn, when non-nil, is the job payload
// (invoked at most once per job with the performing worker id). adv, when
// non-nil, schedules the round through sim.Run on the caller's goroutine,
// the parked workers staying parked; nil kicks them to run free. Workers
// adv crashed are revived on the next round.
//
// The returned RoundResult is reused across rounds — callers must consume
// it (in particular Unperformed) before calling RunRound again.
func (r *Runtime) RunRound(k int, fn func(worker, job int), adv sim.Adversary) (*RoundResult, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: runtime is closed", errValidate)
	}
	if k < r.m || k > r.cap {
		return nil, fmt.Errorf("%w: round size %d outside [m=%d..capacity=%d]", errValidate, k, r.m, r.cap)
	}
	r.prepare(k, fn)
	if adv == nil {
		r.wg.Add(r.m)
		for _, ch := range r.start {
			ch <- struct{}{}
		}
		r.wg.Wait()
		var steps uint64
		for _, n := range r.steps {
			steps += n
		}
		return r.collect(k, steps, 0), nil
	}
	procs := make([]sim.Process, r.m)
	for i, p := range r.procs {
		procs[i] = p
	}
	sr, err := schedule(procs, adv)
	if r.flush != nil {
		// Even a crashed worker flushes: a crash stops the ALGORITHM
		// mid-round (the paper's model), not the process, and jobs the
		// worker already claimed are marked done in the round — their
		// deferred payloads must still run, or a live process would report
		// jobs performed whose payloads never executed.
		for w := 1; w <= r.m; w++ {
			r.flush(w)
		}
	}
	if err != nil {
		return nil, err
	}
	return r.collect(k, sr.Steps, sr.Crashes), nil
}

// prepare re-zeroes the registers dirtied by the previous round — or, for
// a round larger than any before it, grows fresh ones — and resets
// processes and logs, clearing k/64+1 words of each log's bitmap. It runs
// strictly between rounds (before the start send), so it may read process
// state freely.
func (r *Runtime) prepare(k int, fn func(worker, job int)) {
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
		r.marks[i].Reset(k)
		r.logs[i].fn = fn
	}
}

// collect merges the workers' bitmaps and do counts into the reusable
// RoundResult: O(m·k/64) words.
func (r *Runtime) collect(k int, steps uint64, crashed int) *RoundResult {
	res := &r.res
	res.Steps, res.Crashed, res.Work = steps, crashed, 0
	for _, p := range r.procs {
		res.Work += p.Work()
	}
	r.tally.Merge(k, r.marks)
	res.Performed, res.Duplicates = r.tally.Distinct, r.tally.Duplicates
	r.unperformed = r.tally.Unperformed(r.unperformed[:0])
	res.Unperformed = r.unperformed
	return res
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
