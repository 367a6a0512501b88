package baseline

import (
	"fmt"
	"testing"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
	"atmostonce/internal/verify"
)

// TestExploreTwoProcExhaustive model-checks the two-process baseline over
// EVERY interleaving and crash pattern: at-most-once safety, wait-freedom
// (no fair cycles) and the optimal effectiveness n−1 at every terminal.
// The announce-then-check argument is subtle enough to deserve the same
// treatment as KKβ.
func TestExploreTwoProcExhaustive(t *testing.T) {
	for _, tt := range []struct {
		n, f int
	}{
		{2, 0}, {2, 1}, {3, 0}, {3, 1}, {4, 1}, {5, 1},
	} {
		t.Run(fmt.Sprintf("n=%d_f=%d", tt.n, tt.f), func(t *testing.T) {
			mem := shmem.NewSim(2)
			l, r := NewTwoProcPair(mem, 0, 1, tt.n, 1, 2)
			stats, err := verify.ExploreProcs(verify.ExploreOpts{
				Procs: []verify.Snapshottable{l, r},
				Mem:   mem,
				Jobs:  tt.n,
				F:     tt.f,
				OnTerminal: func(performed map[int64]int, witness []sim.Decision) *verify.MCViolationError {
					if len(performed) < tt.n-1 {
						return &verify.MCViolationError{
							Kind:    "effectiveness",
							Detail:  fmt.Sprintf("terminal with Do=%d < n-1=%d", len(performed), tt.n-1),
							Witness: witness,
						}
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Terminals == 0 {
				t.Fatal("no terminals")
			}
			if stats.MinDo < tt.n-1 {
				t.Fatalf("MinDo = %d < n-1", stats.MinDo)
			}
			t.Logf("n=%d f=%d: %d states, %d terminals, Do ∈ [%d,%d], %d cycles",
				tt.n, tt.f, stats.States, stats.Terminals, stats.MinDo, stats.MaxDo, stats.Cycles)
		})
	}
}
