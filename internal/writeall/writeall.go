// Package writeall implements §7: solving the Write-All problem of
// Kanellakis and Shvartsman ("using m processors write 1's to all
// locations of an array of size n") with WA_IterativeKK(ε), plus two
// read/write baselines used for the work comparisons in experiment E6.
package writeall

import (
	"fmt"

	"atmostonce/internal/core"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// Report summarizes one Write-All execution.
type Report struct {
	// N is the array size.
	N int
	// Covered counts distinct cells written at least once.
	Covered int
	// Missing lists unwritten cells; the Write-All postcondition requires
	// it to be empty.
	Missing []int
	// Writes counts total do events (≥ n when correct; the surplus is the
	// redundancy the algorithm paid).
	Writes int
	// Work is total work in the paper's cost model.
	Work uint64
	// Steps is the number of scheduler actions.
	Steps uint64
	// Crashes is the number of injected failures.
	Crashes int
}

// Complete reports whether every cell was written.
func (r *Report) Complete() bool { return len(r.Missing) == 0 }

// run executes w under adv and reports its coverage of the n cells.
func run(n int, w *sim.World, adv sim.Adversary, maxSteps uint64) (*Report, error) {
	res, err := sim.Run(w, adv, maxSteps)
	if err != nil {
		return nil, err
	}
	missing := res.Unperformed(nil)
	return &Report{
		N:       n,
		Covered: n - len(missing),
		Missing: missing,
		Writes:  res.Distinct + res.Duplicates,
		Work:    res.Work,
		Steps:   res.Steps,
		Crashes: res.Crashes,
	}, nil
}

// RunIterKK executes WA_IterativeKK(ε) (Figure 4): the IterativeKK
// cascade with FREE-returning IterStepKK levels and a final direct
// execution of each process's residual set.
func RunIterKK(n, m, epsDenom, f int, adv sim.Adversary, maxSteps uint64) (*Report, error) {
	s, err := core.NewIterSystem(core.IterConfig{
		N: n, M: m, EpsDenom: epsDenom, F: f, WriteAll: true,
	})
	if err != nil {
		return nil, err
	}
	return run(n, s.World, adv, maxSteps)
}

// trivialWAProc writes every cell of the array, one write per step.
type trivialWAProc struct {
	sim.Base
	cur int
	n   int
	mem *shmem.SimMem
}

var _ sim.Process = (*trivialWAProc)(nil)

func (p *trivialWAProc) Step() {
	if p.cur > p.n {
		p.End()
		return
	}
	p.mem.Write(p.cur-1, 1)
	p.Do(int64(p.cur))
	p.cur++
}

// RunTrivial executes the always-correct O(n·m) strawman: every process
// writes every cell.
func RunTrivial(n, m, f int, adv sim.Adversary, maxSteps uint64) (*Report, error) {
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("writeall: invalid n=%d m=%d", n, m)
	}
	mem := shmem.NewSim(n)
	return run(n, sim.Assemble(m, n, mem, f, func(id int, sink sim.DoSink) sim.Process {
		return &trivialWAProc{Base: sim.NewBase(id, sink), cur: 1, n: n, mem: mem}
	}), adv, maxSteps)
}

// sweepPhase is the state of a checkSweepProc.
type sweepPhase int

const (
	sweepOwn sweepPhase = iota + 1 // writing the private slice
	sweepRead
	sweepWrite
)

// checkSweepProc writes its private slice, then sweeps the whole array
// reading each cell and writing only those still zero. Still Θ(n) reads
// per process (Θ(n·m) total) in the worst case, but with a much smaller
// write count than trivial — the strongest "obvious" read/write baseline
// short of the paper's machinery.
type checkSweepProc struct {
	sim.Base
	n       int
	cur     int
	sliceHi int
	phase   sweepPhase
	mem     *shmem.SimMem
}

var _ sim.Process = (*checkSweepProc)(nil)

func (p *checkSweepProc) Step() {
	switch p.phase {
	case sweepOwn:
		if p.cur > p.sliceHi {
			p.cur = 1
			p.phase = sweepRead
			return
		}
		p.mem.Write(p.cur-1, 1)
		p.Do(int64(p.cur))
		p.cur++
	case sweepRead:
		if p.cur > p.n {
			p.End()
			return
		}
		if p.mem.Read(p.cur-1) == 0 {
			p.phase = sweepWrite
		} else {
			p.cur++
		}
		p.Charge()
	case sweepWrite:
		p.mem.Write(p.cur-1, 1)
		p.Do(int64(p.cur))
		p.cur++
		p.phase = sweepRead
	}
}

// RunCheckSweep executes the slice-then-sweep baseline.
func RunCheckSweep(n, m, f int, adv sim.Adversary, maxSteps uint64) (*Report, error) {
	if m < 1 || n < m {
		return nil, fmt.Errorf("writeall: invalid n=%d m=%d", n, m)
	}
	mem := shmem.NewSim(n)
	return run(n, sim.Assemble(m, n, mem, f, func(id int, sink sim.DoSink) sim.Process {
		return &checkSweepProc{Base: sim.NewBase(id, sink), n: n, cur: (id-1)*n/m + 1, sliceHi: id * n / m, phase: sweepOwn, mem: mem}
	}), adv, maxSteps)
}
