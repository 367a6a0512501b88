// Package conc runs the paper's algorithms on their real registers: every
// round's processes share sync/atomic registers, with no locks or
// read-modify-write operations on the algorithm path. A round runs one of
// two ways. Without an adversary each process steps free on its own
// goroutine; because every Step of a core.Proc performs at most one shared
// register access, those executions are exactly the linearizable
// executions of the paper's model (§2.1), scheduled by the Go runtime and
// the hardware. With a sim.Adversary the round runs through sim.Run on the
// caller's goroutine, so the adversary picks every step and every crash
// (at most m−1) and the round repeats exactly from its seed.
//
// The runtime validates the at-most-once property when a round or run
// ends: each process marks its dos in a bitmap of its own, and a
// sim.Tally ORs the bitmaps and sums the do counts (Definition 2.2).
package conc

import (
	"errors"
	"fmt"
	"sync"

	"atmostonce/internal/core"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// Options configures a concurrent run.
type Options struct {
	// N is the number of jobs, M the number of processes (goroutines).
	N, M int
	// Beta is KKβ's termination parameter (0 = m).
	Beta int
	// Iterative selects IterativeKK(ε) instead of plain KKβ.
	Iterative bool
	// EpsDenom is 1/ε for the iterative algorithm (0 = 1).
	EpsDenom int
	// WriteAll selects WA_IterativeKK(ε) (implies Iterative).
	WriteAll bool
	// Adversary, when non-nil, schedules the run (see the package
	// comment): per-process step budgets are a sim.StepBudget.
	Adversary sim.Adversary
	// DoFn, when non-nil, is the job payload, invoked once per performed
	// job with the performing process id.
	DoFn func(pid int, job int64)
}

// Result summarizes a concurrent run.
type Result struct {
	// Events is the number of do events, duplicates included.
	Events int
	// Distinct is the number of distinct jobs performed.
	Distinct int
	// Duplicates counts do events beyond the first per job; nonzero means
	// an at-most-once violation.
	Duplicates int
	// Unperformed lists the job ids (1..N) left undone, ascending; nil when
	// every job was performed.
	Unperformed []int
	// Crashed is the number of processes that crashed.
	Crashed int
	// Steps is the total number of actions taken by all goroutines.
	Steps uint64
}

// errValidate gathers option errors.
var errValidate = errors.New("conc: invalid options")

func (o *Options) normalize() error {
	if o.M < 1 || o.N < o.M {
		return fmt.Errorf("%w: n=%d m=%d", errValidate, o.N, o.M)
	}
	if o.WriteAll {
		o.Iterative = true
	}
	if o.EpsDenom <= 0 {
		o.EpsDenom = 1
	}
	return nil
}

// doLog is a process's DoSink: it marks the do in the process's own
// bitmap and runs the payload, fn, so the processes need no payload
// closure of their own. No synchronization is needed because each process
// owns its log.
type doLog struct {
	*sim.Marks
	fn func(worker, job int)
}

func (l *doLog) RecordDo(pid int, job int64) {
	l.Mark(job)
	if l.fn != nil {
		l.fn(pid, int(job))
	}
}

// Run executes the configured algorithm concurrently and returns the
// merged, validated result. Plain KKβ runs execute as a single round on a
// throwaway Runtime pool; the iterative variants spawn their level-chain
// processes directly (IterProc chains are not reusable).
func Run(o Options) (*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	var fn func(worker, job int)
	if o.DoFn != nil {
		do := o.DoFn
		fn = func(worker, job int) { do(worker, int64(job)) }
	}
	if o.Iterative {
		return runIterative(o, fn)
	}
	rt, err := NewRuntime(RuntimeOptions{M: o.M, Capacity: o.N, Beta: o.Beta})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	rr, err := rt.RunRound(o.N, fn, o.Adversary)
	if err != nil {
		return nil, err
	}
	return &Result{
		Events:      rr.Performed + rr.Duplicates,
		Distinct:    rr.Performed,
		Duplicates:  rr.Duplicates,
		Unperformed: append([]int(nil), rr.Unperformed...), // rr is the pool's
		Crashed:     rr.Crashed,
		Steps:       rr.Steps,
	}, nil
}

// runIterative executes IterativeKK(ε) / WA_IterativeKK(ε) over a fresh
// register file: under o.Adversary, or one goroutine per level-chain
// process.
func runIterative(o Options, fn func(worker, job int)) (*Result, error) {
	cfg := core.IterConfig{N: o.N, M: o.M, EpsDenom: o.EpsDenom, WriteAll: o.WriteAll, Beta: o.Beta}
	cfg, levels, size, err := core.PlanLevels(cfg)
	if err != nil {
		return nil, err
	}
	procs := make([]sim.Process, o.M)
	marks := sim.NewMarks(o.M, o.N)
	for i, ip := range core.NewIterProcsOn(cfg, levels, shmem.NewAtomic(size)) {
		ip.SetSink(&doLog{Marks: &marks[i], fn: fn})
		procs[i] = ip
	}
	res := &Result{}
	if o.Adversary != nil {
		sr, err := schedule(procs, o.Adversary)
		if err != nil {
			return nil, err
		}
		res.Steps, res.Crashed = sr.Steps, sr.Crashes
	} else {
		var wg sync.WaitGroup
		steps := make([]uint64, o.M)
		for i, p := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				steps[i] = stepAll(p)
			}()
		}
		wg.Wait()
		for _, n := range steps {
			res.Steps += n
		}
	}
	var t sim.Tally
	t.Merge(o.N, marks)
	res.Distinct, res.Duplicates, res.Unperformed = t.Distinct, t.Duplicates, t.Unperformed(nil)
	res.Events = t.Distinct + t.Duplicates
	return res, nil
}

// stepAll is the step loop of a free round: p steps on the calling
// goroutine until its algorithm ends. It returns the steps p took.
func stepAll(p sim.Process) uint64 {
	var steps uint64
	for p.Status() == sim.Running {
		p.Step()
		steps++
	}
	return steps
}

// schedule runs a round's processes under adv through sim.Run on the
// calling goroutine, with crash budget m−1 and no step limit.
func schedule(procs []sim.Process, adv sim.Adversary) (*sim.Result, error) {
	return sim.Run(sim.NewWorld(procs, nil, len(procs)-1), adv, 0)
}
