// Package baseline implements the comparison algorithms the paper
// positions KKβ against:
//
//   - Trivial: the §2.2 strawman — split the n jobs into m static groups,
//     one per process; effectiveness (m−f)·n/m.
//   - TwoProc: the optimal two-process algorithm in the style of Kentros
//     et al. [26] — the two processes walk the job range from opposite
//     ends, announcing before performing; effectiveness n−1.
//   - Paired: TwoProc lifted to m processes by pairing them over m/2
//     static slices; an executable midpoint between Trivial and KKβ.
//   - TAS: the §1 remark — with test-and-set registers each job is
//     claimed atomically; effectiveness n−f, unattainable with read/write
//     registers alone but a useful reference line.
//
// The full multi-process algorithm of [26] (effectiveness n − log m·o(n))
// is not reconstructable from the present paper's text; experiment E7
// reports its effectiveness formula analytically instead (see DESIGN.md).
package baseline

import (
	"fmt"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// TrivialProc performs a static slice of jobs, one per step, touching no
// shared memory. Crashing it loses the remainder of its slice.
type TrivialProc struct {
	sim.Base
	next int // next job to perform
	hi   int // last job of the slice (inclusive)
}

var _ sim.Process = (*TrivialProc)(nil)

// NewTrivialSystem builds the trivial split algorithm for n jobs over m
// processes: process p owns jobs ((p−1)·n/m, p·n/m].
func NewTrivialSystem(n, m, f int) (*sim.World, error) {
	if m < 1 || n < m {
		return nil, fmt.Errorf("baseline: invalid n=%d m=%d", n, m)
	}
	mem := shmem.NewSim(1) // the algorithm uses no shared memory
	return sim.Assemble(m, n, mem, f, func(id int, sink sim.DoSink) sim.Process {
		return &TrivialProc{Base: sim.NewBase(id, sink), next: (id-1)*n/m + 1, hi: id * n / m}
	}), nil
}

// Step performs the next job of the slice.
func (p *TrivialProc) Step() {
	if p.next > p.hi {
		p.End()
		return
	}
	p.Do(int64(p.next))
	p.next++
}

// TrivialEffectiveness is the closed form (m−f)·n/m from §2.2.
func TrivialEffectiveness(n, m, f int) int { return (m - f) * n / m }
