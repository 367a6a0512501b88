package verify

import (
	"testing"

	"atmostonce/internal/core"
)

// TestExploreTiny exhaustively checks KKβ for m=2, n=2, f=1: every
// interleaving and crash pattern. This machine-checks Lemma 4.1 (safety),
// Lemma 4.3 (no fair cycles) and Theorem 4.4's lower bound on the entire
// execution tree.
func TestExploreTiny(t *testing.T) {
	stats, err := ExploreKK(MCConfig{N: 2, M: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	if bound := core.EffectivenessBound(2, 2, 0); stats.MinDo < bound {
		t.Fatalf("MinDo = %d < bound %d", stats.MinDo, bound)
	}
	if stats.MaxDo > 2 {
		t.Fatalf("MaxDo = %d > n", stats.MaxDo)
	}
	t.Logf("n=2 m=2 f=1: %d states, %d terminals, Do ∈ [%d,%d], %d cycles",
		stats.States, stats.Terminals, stats.MinDo, stats.MaxDo, stats.Cycles)
}

func TestExploreNoCrashes(t *testing.T) {
	stats, err := ExploreKK(MCConfig{N: 3, M: 2, F: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Without crashes both processes terminate voluntarily; Lemma 4.2
	// guarantees at least n-(β+m-2) jobs in every terminal.
	if bound := core.EffectivenessBound(3, 2, 0); stats.MinDo < bound {
		t.Fatalf("MinDo = %d < bound %d", stats.MinDo, bound)
	}
	t.Logf("n=3 m=2 f=0: %d states, %d terminals, Do ∈ [%d,%d]",
		stats.States, stats.Terminals, stats.MinDo, stats.MaxDo)
}

func TestExploreWithCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration is slow in -short mode")
	}
	stats, err := ExploreKK(MCConfig{N: 3, M: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bound := core.EffectivenessBound(3, 2, 0); stats.MinDo < bound {
		t.Fatalf("MinDo = %d < bound %d", stats.MinDo, bound)
	}
	t.Logf("n=3 m=2 f=1: %d states, %d terminals, Do ∈ [%d,%d], %d cycles",
		stats.States, stats.Terminals, stats.MinDo, stats.MaxDo, stats.Cycles)
}

// TestExploreIterStep checks the IterStepKK variant (termination flag) on
// a tiny instance, including Lemma 6.2: no output set contains a
// performed job.
func TestExploreIterStep(t *testing.T) {
	stats, err := ExploreKK(MCConfig{N: 2, M: 2, F: 1, IterStep: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("iterstep n=2 m=2 f=1: %d states, %d terminals, Do ∈ [%d,%d]",
		stats.States, stats.Terminals, stats.MinDo, stats.MaxDo)
}

func TestExploreStateBudget(t *testing.T) {
	_, err := ExploreKK(MCConfig{N: 4, M: 2, F: 1, MaxStates: 10})
	if err != ErrStateBudget {
		t.Fatalf("err = %v, want ErrStateBudget", err)
	}
}

// TestExploreSuiteCounts pins the state graph of E9's seven configurations
// (`amo-verify -suite`): its distinct states, terminals and Do range. Any
// change to what a process's AppendState keys on — a state merged with
// another or split in two — moves a count here.
func TestExploreSuiteCounts(t *testing.T) {
	for _, tc := range []struct {
		cfg                       MCConfig
		states, terminals, lo, hi int
	}{
		{MCConfig{N: 2, M: 2, F: 1}, 493, 27, 1, 2},
		{MCConfig{N: 3, M: 2, F: 0}, 992, 23, 1, 3},
		{MCConfig{N: 3, M: 2, F: 1}, 1403, 65, 1, 3},
		{MCConfig{N: 4, M: 2, F: 1}, 7045, 239, 2, 4},
		{MCConfig{N: 3, M: 3, F: 1}, 78396, 1070, 2, 3},
		{MCConfig{N: 2, M: 2, F: 1, IterStep: true}, 1402, 21, 1, 2},
		{MCConfig{N: 3, M: 2, F: 1, IterStep: true}, 4255, 59, 1, 3},
	} {
		s, err := ExploreKK(tc.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if s.States != tc.states || s.Terminals != tc.terminals || s.MinDo != tc.lo || s.MaxDo != tc.hi || s.Cycles != 0 {
			t.Errorf("%+v: %d states, %d terminals, Do ∈ [%d,%d], %d cycles; want %d, %d, [%d,%d], 0",
				tc.cfg, s.States, s.Terminals, s.MinDo, s.MaxDo, s.Cycles, tc.states, tc.terminals, tc.lo, tc.hi)
		}
	}
}
