package conc

import (
	"runtime"
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

// TestRuntimeGrowsWithRounds: the round state is sized by the largest
// round run so far — the next power of two at or above it, never more
// than Capacity — and a round after a growth, larger or smaller, is as
// correct as any other.
func TestRuntimeGrowsWithRounds(t *testing.T) {
	const m, capacity = 2, 1024
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: capacity, Jitter: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	largest := 0
	for _, k := range []int{2, 3, 65, 64, 1000, 7, 1024} {
		res, err := rt.RunRound(k, nil, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Duplicates != 0 || res.Performed+len(res.Unperformed) != k {
			t.Fatalf("k=%d: %d duplicates, performed %d + residue %d != k",
				k, res.Duplicates, res.Performed, len(res.Unperformed))
		}
		largest = max(largest, k)
		want := 1
		for want < largest {
			want *= 2
		}
		if got := rt.lay.RowLen; got != want {
			t.Fatalf("after k=%d (largest %d) the runtime holds %d slots, want %d", k, largest, got, want)
		}
	}
}

// TestNewRuntimeHoldsNothing: a runtime that has run no round holds no
// round state, whatever its Capacity — building one admitting 2^20-job
// rounds allocates no more than its workers' bookkeeping.
func TestNewRuntimeHoldsNothing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := NewRuntime(RuntimeOptions{M: 2, Capacity: 1 << 20})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("NewRuntime(M: 2, Capacity: 1<<20) allocated %d bytes, want < 16 KiB", got)
	}
}

// TestRuntimeSteadyStateAllocFree is the zero-allocation guard for the
// round hot path: once the runtime has grown to its largest round, RunRound
// must not allocate at all, for that round or any smaller one.
func TestRuntimeSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	const m, k = 4, 512
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: 4 * k})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var count atomic.Int64
	fn := func(worker, job int) { count.Add(1) }
	for _, n := range []int{m, k / 4, k, k, k} { // grow, then settle goroutine stacks and scheduler state
		if _, err := rt.RunRound(n, fn, nil); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		for _, n := range []int{k, m, 100, k - 1} {
			if _, err := rt.RunRound(n, fn, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state rounds allocate %.1f times, want 0", avg)
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
