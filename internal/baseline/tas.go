package baseline

import (
	"fmt"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// TASProc implements the §1 remark: "one can associate a test-and-set bit
// with each job, ensuring that the job is assigned to the only process
// that successfully sets the shared bit." Each process sweeps the job
// array; one TAS per job, performing those it wins. Effectiveness is the
// optimal n−f (a job is lost only when its winner crashes between the TAS
// and the do), but the primitive is a read-modify-write — exactly what
// the paper's model rules out — so this is a reference line, not a
// competitor.
type TASProc struct {
	sim.Base
	n   int
	cur int // job whose bit is probed next
	won int // job won and not yet performed (0 = none)
	mem *shmem.SimMem
}

var _ sim.Process = (*TASProc)(nil)

// NewTASSystem builds the test-and-set claiming algorithm over n jobs and
// m processes. Register j−1 is job j's claim bit.
func NewTASSystem(n, m, f int) (*sim.World, error) {
	if m < 1 || n < m {
		return nil, fmt.Errorf("baseline: invalid n=%d m=%d", n, m)
	}
	mem := shmem.NewSim(n)
	return sim.Assemble(m, n, mem, f, func(id int, sink sim.DoSink) sim.Process {
		return &TASProc{Base: sim.NewBase(id, sink), n: n, cur: 1, mem: mem}
	}), nil
}

// Step probes one claim bit or performs a won job.
func (p *TASProc) Step() {
	if p.won != 0 {
		p.Do(int64(p.won))
		p.won = 0
		return
	}
	if p.cur > p.n {
		p.End()
		return
	}
	if p.mem.TestAndSet(p.cur-1) == 0 {
		p.won = p.cur
	}
	p.Charge()
	p.cur++
}
