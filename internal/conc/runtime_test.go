package conc

import (
	"sync/atomic"
	"testing"

	"atmostonce/internal/core"
)

// TestRuntimeRoundReuse drives many rounds of varying sizes through one
// pool and checks each round is an independent, correct KKβ execution.
func TestRuntimeRoundReuse(t *testing.T) {
	const m, capacity = 4, 500
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: capacity, Jitter: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for round, k := range []int{capacity, 17, 250, m, capacity, 100} {
		var count atomic.Int64
		res, err := rt.RunRound(k, func(worker, job int) { count.Add(1) }, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Duplicates != 0 {
			t.Fatalf("round %d (k=%d): %d duplicates", round, k, res.Duplicates)
		}
		if lower := core.EffectivenessBound(k, m, 0); res.Performed < lower {
			t.Fatalf("round %d (k=%d): performed %d < bound %d", round, k, res.Performed, lower)
		}
		if res.Performed+len(res.Unperformed) != k {
			t.Fatalf("round %d (k=%d): performed %d + residue %d != k",
				round, k, res.Performed, len(res.Unperformed))
		}
		if int(count.Load()) != res.Performed {
			t.Fatalf("round %d: payload ran %d times, performed %d", round, count.Load(), res.Performed)
		}
	}
}

// TestRuntimeCrashRevival crashes workers in one round and checks they are
// revived — and that residue is reported — on the next.
func TestRuntimeCrashRevival(t *testing.T) {
	const m, k = 4, 300
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: k, Jitter: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.RunRound(k, nil, []uint64{50, 80, 120, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 3 {
		t.Fatalf("crashed = %d, want 3", res.Crashed)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates under crashes", res.Duplicates)
	}
	// Crash-free follow-up round: everyone revives and the full round
	// completes to the Theorem 4.4 bound.
	res, err = rt.RunRound(k, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 0 {
		t.Fatalf("revived round reports %d crashes", res.Crashed)
	}
	if lower := core.EffectivenessBound(k, m, 0); res.Performed < lower {
		t.Fatalf("revived round performed %d < bound %d", res.Performed, lower)
	}
}

// TestRuntimeSteadyStateAllocFree is the zero-allocation guard for the
// round hot path: after construction (which prewarms every pool), RunRound
// must not allocate at all.
func TestRuntimeSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	const m, k = 4, 512
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: k})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var count atomic.Int64
	fn := func(worker, job int) { count.Add(1) }
	for i := 0; i < 3; i++ { // settle goroutine stacks and scheduler state
		if _, err := rt.RunRound(k, fn, nil); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := rt.RunRound(k, fn, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state round allocates %.1f times, want 0", avg)
	}
}

// TestRunCrashCountExcludesUnreachedCrashes is the regression test for the
// spawn-time crash accounting bug: a worker whose crash step lies beyond
// its execution must NOT be counted as crashed.
func TestRunCrashCountExcludesUnreachedCrashes(t *testing.T) {
	// Worker 2's crash point is astronomically far away; the run finishes
	// long before, so nobody actually crashes.
	res, err := Run(Options{N: 100, M: 2, CrashAfter: []uint64{0, 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 0 {
		t.Fatalf("Crashed = %d, want 0 (no worker reached its crash step)", res.Crashed)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates", res.Duplicates)
	}
	// Iterative path shares the accounting fix.
	res, err = Run(Options{N: 500, M: 2, Iterative: true, CrashAfter: []uint64{0, 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 0 {
		t.Fatalf("iterative Crashed = %d, want 0", res.Crashed)
	}
}

// TestRuntimeRoundValidation covers the per-round argument checks.
func TestRuntimeRoundValidation(t *testing.T) {
	rt, err := NewRuntime(RuntimeOptions{M: 3, Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunRound(2, nil, nil); err == nil {
		t.Error("k < m accepted")
	}
	if _, err := rt.RunRound(11, nil, nil); err == nil {
		t.Error("k > capacity accepted")
	}
	if _, err := rt.RunRound(5, nil, []uint64{1}); err == nil {
		t.Error("short crash vector accepted")
	}
	if _, err := rt.RunRound(5, nil, []uint64{1, 1, 1}); err == nil {
		t.Error("all-crash vector accepted")
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.RunRound(5, nil, nil); err == nil {
		t.Error("round on closed runtime accepted")
	}
	if _, err := NewRuntime(RuntimeOptions{M: 4, Capacity: 2}); err == nil {
		t.Error("capacity < m accepted")
	}
}
