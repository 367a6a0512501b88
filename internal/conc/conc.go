// Package conc runs the paper's algorithms under true concurrency: one
// goroutine per process over sync/atomic registers, with no locks or
// read-modify-write operations on the algorithm path. Because every Step
// of a core.Proc performs at most one shared register access, the
// goroutine executions are exactly the linearizable executions of the
// paper's model (§2.1), now scheduled by the Go runtime and the hardware
// instead of a simulated adversary.
//
// The runtime validates the at-most-once property post-hoc from
// per-process event logs and supports deterministic crash injection
// (a goroutine stops stepping after a configured number of actions).
package conc

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

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
	// CrashAfter, when non-nil, gives per-process step counts after which
	// the goroutine stops stepping (simulated crash). 0 = never. At least
	// one process must never crash.
	CrashAfter []uint64
	// Jitter injects random runtime.Gosched calls to diversify
	// interleavings; Seed makes the injection deterministic per process.
	Jitter bool
	Seed   int64
	// DoFn, when non-nil, is the job payload, invoked once per performed
	// job with the performing process id.
	DoFn func(pid int, job int64)
}

// Result summarizes a concurrent run.
type Result struct {
	// Events holds every do event, grouped by process.
	Events []sim.Event
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
	if o.CrashAfter != nil && len(o.CrashAfter) != o.M {
		return fmt.Errorf("%w: CrashAfter has %d entries for m=%d", errValidate, len(o.CrashAfter), o.M)
	}
	if o.CrashAfter != nil {
		alive := 0
		for _, c := range o.CrashAfter {
			if c == 0 {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("%w: all processes crash (need f < m)", errValidate)
		}
	}
	if o.WriteAll {
		o.Iterative = true
	}
	if o.EpsDenom <= 0 {
		o.EpsDenom = 1
	}
	return nil
}

// eventLog is a per-goroutine DoSink; no synchronization needed because
// each process owns its log. A Runtime's logs also run its round payload,
// so the processes it rebuilds need no payload closure of their own.
type eventLog struct {
	pid    int
	events []sim.Event
	rt     *Runtime
}

func (l *eventLog) RecordDo(pid int, job int64) {
	l.events = append(l.events, sim.Event{PID: pid, Job: job})
	if l.rt != nil && l.rt.fn != nil {
		l.rt.fn(pid, int(job))
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
	if o.Iterative {
		return runIterative(o)
	}
	rt, err := NewRuntime(RuntimeOptions{
		M: o.M, Capacity: o.N, Beta: o.Beta, Jitter: o.Jitter, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	var fn func(worker, job int)
	if o.DoFn != nil {
		do := o.DoFn
		fn = func(worker, job int) { do(worker, int64(job)) }
	}
	rr, err := rt.RunRound(o.N, fn, o.CrashAfter)
	if err != nil {
		return nil, err
	}
	return &Result{
		Events:      rt.Events(nil),
		Distinct:    rr.Performed,
		Duplicates:  rr.Duplicates,
		Unperformed: append([]int(nil), rr.Unperformed...), // rr is the pool's
		Crashed:     rr.Crashed,
		Steps:       rr.Steps,
	}, nil
}

// runIterative executes IterativeKK(ε) / WA_IterativeKK(ε): one goroutine
// per level-chain process over a fresh register file.
func runIterative(o Options) (*Result, error) {
	procs, logs, err := buildIterProcs(o)
	if err != nil {
		return nil, err
	}
	var (
		wg      sync.WaitGroup
		steps   = make([]uint64, o.M)
		crashed atomic.Int64
	)
	for i := 0; i < o.M; i++ {
		var crashAt uint64
		if o.CrashAfter != nil {
			crashAt = o.CrashAfter[i]
		}
		wg.Add(1)
		go func(idx int, p sim.Process, crashAt uint64) {
			defer wg.Done()
			var rng *rand.Rand
			if o.Jitter {
				rng = rand.New(rand.NewSource(o.Seed + int64(idx)))
			}
			for p.Status() == sim.Running {
				if crashAt > 0 && steps[idx] >= crashAt {
					// Count crashes as they are delivered: a process that
					// terminates before reaching its crash step did not
					// crash.
					p.Crash()
					crashed.Add(1)
					return
				}
				p.Step()
				steps[idx]++
				if rng != nil && rng.Intn(8) == 0 {
					runtime.Gosched()
				}
			}
		}(i, procs[i], crashAt)
	}
	wg.Wait()

	res := &Result{Crashed: int(crashed.Load())}
	for i, l := range logs {
		res.Events = append(res.Events, l.events...)
		res.Steps += steps[i]
	}
	t := sim.TallyEvents(res.Events, o.N)
	res.Distinct, res.Duplicates, res.Unperformed = t.Distinct, t.Duplicates, t.Unperformed()
	return res, nil
}

func buildIterProcs(o Options) ([]sim.Process, []*eventLog, error) {
	procs := make([]sim.Process, o.M)
	logs := make([]*eventLog, o.M)
	cfg := core.IterConfig{N: o.N, M: o.M, EpsDenom: o.EpsDenom, WriteAll: o.WriteAll, Beta: o.Beta}
	cfg, levels, size, err := core.PlanLevels(cfg)
	if err != nil {
		return nil, nil, err
	}
	iters := core.NewIterProcsOn(cfg, levels, shmem.NewAtomic(size))
	for i, ip := range iters {
		logs[i] = &eventLog{pid: i + 1}
		ip.SetSink(logs[i])
		if o.DoFn != nil {
			pid := i + 1
			fn := o.DoFn
			ip.SetDoFn(func(job int64) { fn(pid, job) })
		}
		procs[i] = ip
	}
	return procs, logs, nil
}
