package core

import (
	"testing"

	"atmostonce/internal/sim"
)

// TestWorkBreakdownConsistent: per-process work decomposes into shared
// accesses, log-charged set operations and O(1) residual steps, and the
// process-level shared-access counts sum to the memory's global counters.
func TestWorkBreakdownConsistent(t *testing.T) {
	s := mustSystem(t, Config{N: 256, M: 4})
	if _, err := s.Run(&sim.RoundRobin{}, testStepLimit); err != nil {
		t.Fatal(err)
	}
	var shared, setOps, work uint64
	for _, p := range s.Procs {
		shared += p.SharedAccesses()
		setOps += p.SetOps()
		work += p.Work()
	}
	if got := s.Mem.Reads() + s.Mem.Writes(); shared != got {
		t.Fatalf("proc shared accesses %d != memory accesses %d", shared, got)
	}
	lgN := uint64(ceilLog2(256 + 1))
	if floor := shared + setOps*lgN; work < floor {
		t.Fatalf("work %d < shared %d + setops·lg %d", work, shared, setOps*lgN)
	}
	// Set operations dominate the cost model (the paper's lg n factor).
	if setOps == 0 || shared == 0 {
		t.Fatal("breakdown counters not populated")
	}
}
