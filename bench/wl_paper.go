//go:build linux

package main

import (
	"fmt"
	"sync/atomic"
)

// paper_batch runs the paper's own one-shot algorithms through the public
// API. One epoch is one cycle of the four modes; the sizes are fixed.
const (
	paperWorkers   = 8 // m for both simulations: the Tightness loss is 2m−2 = 14
	paperKKJobs    = 1 << 17
	paperIterJobs  = 1 << 20
	paperRunJobs   = 1 << 17
	paperCells     = 1 << 20
	paperIterCrash = 7
	paperCrashProb = 1e-5
	// The warm-up cycle runs at 1/8 of the sizes, its IterativeKK
	// simulation at 1/256: at m=8 that simulation takes ~1.2M steps for
	// any n from 2^16 up, so at 1/8 the warm-up would cost as much as
	// half the cycle it warms.
	paperWarmShare     = 8
	paperWarmIterShare = 256

	// The random adversary of the IterativeKK simulation runs at one fixed
	// seed whatever -seed says: over seeds 1–6 the same simulation took
	// 431–612 ms (work 29.3M–37.8M), so a seed-dependent run would measure
	// the seed, and at a fixed seed its work is an exact count (34 145 292
	// at full size). The Tightness adversary takes no seed at all.
	paperIterSeed = 7
)

// paperCycle is what one cycle of the four modes measured.
type paperCycle struct {
	jobs                      uint64 // performed, all four modes
	kkNS, iterNS, runNS, waNS int64
	kkSteps, iterSteps        uint64
	kkLoss, iterLoss          int
	kkWork, iterWork          uint64
	kkJobs, iterJobs          int
	runJobs, runDone          int
	cells, redundant          int
	orc                       *oracle         // over the Run jobs
	covered                   []atomic.Uint64 // Write-All cells written
}

// newPaperCycle prepares a cycle of the four modes at 1/div of the sizes
// (the IterativeKK simulation at 1/iterDiv): its oracle and coverage map.
func newPaperCycle(div, iterDiv int) *paperCycle {
	c := &paperCycle{
		kkJobs: paperKKJobs / div, iterJobs: paperIterJobs / iterDiv,
		runJobs: paperRunJobs / div, cells: paperCells / div,
	}
	c.orc = newOracle(c.runJobs)
	c.covered = make([]atomic.Uint64, (c.cells+63)/64)
	return c
}

// run executes the cycle. rec, when non-nil, receives the stamps of the
// Run jobs (sequence numbers 0..runJobs-1) and the Write-All cells
// (runJobs..runJobs+cells-1): a job is "submitted" when its batch call is
// entered and "done" when its payload has run.
func (c *paperCycle) run(rec *recorder) error {
	runJobs, covered := c.runJobs, c.covered

	t := now()
	kk, err := simulate(simConfig{Jobs: c.kkJobs, Workers: paperWorkers, Scheduler: schedTightness})
	if err != nil {
		return fmt.Errorf("simulate Tightness: %w", err)
	}
	c.kkNS = now() - t
	c.kkSteps, c.kkWork, c.kkLoss = kk.Steps, kk.Work, c.kkJobs-kk.Performed
	if kk.Duplicates != 0 {
		c.orc.fail("Simulate(Tightness) reported %d duplicates", kk.Duplicates)
	}
	if c.kkLoss != 2*paperWorkers-2 {
		c.orc.fail("Simulate(Tightness) left %d of %d jobs, Theorem 4.4 says exactly %d", c.kkLoss, c.kkJobs, 2*paperWorkers-2)
	}

	t = now()
	it, err := simulate(simConfig{Jobs: c.iterJobs, Workers: paperWorkers, Iterative: true,
		Scheduler: schedRandom, Crashes: paperIterCrash, CrashProb: paperCrashProb, Seed: paperIterSeed})
	if err != nil {
		return fmt.Errorf("simulate IterativeKK: %w", err)
	}
	c.iterNS = now() - t
	c.iterSteps, c.iterWork, c.iterLoss = it.Steps, it.Work, c.iterJobs-it.Performed
	if it.Duplicates != 0 {
		c.orc.fail("Simulate(Iterative) reported %d duplicates", it.Duplicates)
	}

	stampJob := func(seq uint64, call int64) {
		if rec == nil || rec.slot(seq) < 0 {
			return
		}
		rec.set(stSubmit, seq, call)
		if rec.traced {
			rec.set(stAck, seq, call)
			rec.stamp(stRun, seq)
			rec.stamp(stRan, seq)
		}
		rec.stamp(stDone, seq)
	}

	t = now()
	sum, err := runBatch(runConfig{Jobs: runJobs, Workers: workersShard}, func(_, job int) {
		seq := uint64(job - 1)
		c.orc.Ran(seq)
		c.orc.Done(seq)
		stampJob(seq, t)
	})
	if err != nil {
		return fmt.Errorf("run batch: %w", err)
	}
	c.runNS = now() - t
	c.runDone = sum.Performed
	left := make(map[int]bool, len(sum.Unperformed))
	for _, j := range sum.Unperformed {
		left[j] = true
	}
	for j := 1; j <= runJobs; j++ {
		if !left[j] {
			c.orc.Accepted(uint64(j - 1))
		}
	}
	if sum.Duplicates != 0 || sum.Performed+sum.Remaining != runJobs || sum.Remaining != len(sum.Unperformed) {
		c.orc.fail("Run summary inconsistent: %d performed, %d remaining, %d listed, %d duplicates of %d jobs",
			sum.Performed, sum.Remaining, len(sum.Unperformed), sum.Duplicates, runJobs)
	}

	t = now()
	red, err := writeAll(c.cells, workersShard, func(_, cell int) {
		i := uint64(cell - 1)
		m := uint64(1) << (i & 63)
		if covered[i>>6].Or(m)&m == 0 { // first write of the cell: the only one that stamps
			stampJob(uint64(runJobs)+i, t)
		}
	})
	if err != nil {
		return fmt.Errorf("write-all: %w", err)
	}
	c.waNS = now() - t
	c.redundant = red
	if got := count(covered); got != uint64(c.cells) {
		c.orc.fail("WriteAll covered %d of %d cells", got, c.cells)
	}

	c.jobs = uint64(kk.Performed + it.Performed + sum.Performed + c.cells)
	return nil
}

func paperEpoch(r *run, e int, traced bool) (*epochOut, error) {
	div := r.scale
	stamped := paperRunJobs/div + paperCells/div
	rec := r.recorder(traced, stamped)

	// Set-up: the one-shot modes have no constructor, so all there is to
	// set up is the harness's own state for the two cycles.
	var warm, c *paperCycle
	setup, _, err := timedSetup(func() (int64, func(), error) {
		t := now()
		warm = newPaperCycle(div*paperWarmShare, max(div, paperWarmIterShare))
		c = newPaperCycle(div, div)
		rec.arm(0, uint64(stamped))
		return now() - t, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	if err := warm.run(nil); err != nil {
		return nil, err
	}

	m0 := readMeter()
	if err := c.run(rec); err != nil {
		return nil, err
	}
	m1 := readMeter()
	if err := warm.orc.Check(); err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}

	out := &epochOut{s: sample{}, attempted: c.jobs}
	s := out.s
	lat := rec.between(stSubmit, stDone)
	window(out, m0, m1, c.jobs, traced, setup, lat)
	if traced {
		s["core.kk_steps_per_s"] = float64(c.kkSteps) / (float64(c.kkNS) / 1e9)
		s["core.iter_steps_per_s"] = float64(c.iterSteps) / (float64(c.iterNS) / 1e9)
		s["core.kk_eff_loss_jobs"] = float64(c.kkLoss)
		s["core.kk_work_per_job"] = float64(c.kkWork) / float64(c.kkJobs)
		s["core.iter_eff_loss_jobs"] = float64(c.iterLoss)
		s["core.iter_work_per_job"] = float64(c.iterWork) / float64(c.iterJobs)
		s["conc.run_jobs_per_s"] = float64(c.runDone) / (float64(c.runNS) / 1e9)
		s["conc.writeall_cells_per_s"] = float64(c.cells) / (float64(c.waNS) / 1e9)
		s["conc.writeall_redundant_share"] = float64(c.redundant) / float64(c.cells)
		s["loadgen.fail_share"] = 0
		bud := rec.stages()
		out.budget = &bud
		s["loadgen.budget_gap_share"] = bud.Gap
		if err := r.writeSpans(rec, wPaper, e); err != nil {
			return nil, err
		}
	}
	out.err = c.orc.Check()
	return out, nil
}
