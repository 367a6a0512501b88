package baseline

import (
	"fmt"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// NewPairedSystem lifts the two-process algorithm to m processes by
// pairing: processes (2i−1, 2i) share slice i of the job range via
// TwoProc; with odd m the last process owns its slice alone (TrivialProc).
// A slice survives unless both of its owners crash, so the worst-case
// effectiveness is n − ⌊f/2⌋·(2n/m) − O(f) — strictly better than Trivial
// for f < m−1 but still multiplicative, unlike KKβ's additive n−2m+2.
func NewPairedSystem(n, m, f int) (*sim.World, error) {
	if m < 1 || n < m {
		return nil, fmt.Errorf("baseline: invalid n=%d m=%d", n, m)
	}
	pairs := m / 2
	solo := m%2 == 1
	slices := pairs
	if solo {
		slices++
	}
	mem := shmem.NewSim(2 * pairs)
	return sim.Assemble(m, n, mem, f, func(id int, sink sim.DoSink) sim.Process {
		i := (id - 1) / 2
		if i == pairs { // the odd process out
			return &TrivialProc{Base: sim.NewBase(id, sink), next: pairs*n/slices + 1, hi: n}
		}
		return newTwoProc(mem, 2*i, i*n/slices+1, (i+1)*n/slices, id, id%2 == 1, sink)
	}), nil
}
