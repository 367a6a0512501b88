package conc

import (
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"atmostonce/internal/adversary"
	"atmostonce/internal/core"
	"atmostonce/internal/sim"
)

// TestRuntimeRoundReuse drives many rounds of varying sizes through one
// pool and checks each round is an independent, correct KKβ execution.
func TestRuntimeRoundReuse(t *testing.T) {
	const m, capacity = 4, 500
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: capacity})
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
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: k})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.RunRound(k, nil, &sim.StepBudget{Steps: []uint64{50, 80, 120, 0}, Then: sim.NewRandom(7)})
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
	rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: capacity})
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
	res, err := Run(Options{N: 100, M: 2, Adversary: &sim.StepBudget{Steps: []uint64{0, 1 << 40}, Then: sim.NewRandom(1)}})
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
	res, err = Run(Options{N: 500, M: 2, Iterative: true, Adversary: &sim.StepBudget{Steps: []uint64{0, 1 << 40}, Then: sim.NewRandom(1)}})
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
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.RunRound(5, nil, nil); err == nil {
		t.Error("round on closed runtime accepted")
	}
	if _, err := NewRuntime(RuntimeOptions{M: 4, Capacity: 2}); err == nil {
		t.Error("capacity < m accepted")
	}
}

// TestRuntimeTightness is Theorem 4.4 on a real round: under the proof's
// adversary (m−1 workers crash holding distinct announced jobs, the last
// runs alone) a Runtime's round performs exactly k−(β+m−2) jobs.
func TestRuntimeTightness(t *testing.T) {
	const k = 64
	for _, m := range []int{2, 4} {
		rt, err := NewRuntime(RuntimeOptions{M: m, Capacity: k, Beta: m})
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int64
		res, err := rt.RunRound(k, func(worker, job int) { ran.Add(1) }, &adversary.Tightness{})
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := k - (m + m - 2); res.Performed != want {
			t.Errorf("m=%d: performed %d, Theorem 4.4 says exactly %d", m, res.Performed, want)
		}
		if res.Crashed != m-1 || res.Duplicates != 0 {
			t.Errorf("m=%d: %d crashed, %d duplicates; want %d and 0", m, res.Crashed, res.Duplicates, m-1)
		}
		if int(ran.Load()) != res.Performed {
			t.Errorf("m=%d: payload ran %d times, performed %d", m, ran.Load(), res.Performed)
		}
	}
}

// TestSeededRoundsRepeat: a round under a seeded adversary is the same
// execution every time it runs — the same do events in the same order,
// steps, crashes and residue — on a fresh Runtime, on a warm one that ran
// a different round first, and through Run's iterative executor. The
// payload records the do events: a scheduled round runs it on the
// caller's goroutine, in the schedule's order.
func TestSeededRoundsRepeat(t *testing.T) {
	type outcome struct {
		Events      []sim.Event
		Steps       uint64
		Crashed     int
		Unperformed []int
	}
	seeded := func() sim.Adversary {
		return &sim.StepBudget{Steps: []uint64{0, 60, 140}, Then: sim.NewRandom(5)}
	}
	round := func(rt *Runtime) outcome {
		var events []sim.Event
		res, err := rt.RunRound(300, func(worker, job int) {
			events = append(events, sim.Event{PID: worker, Job: int64(job)})
		}, seeded())
		if err != nil {
			t.Fatal(err)
		}
		return outcome{events, res.Steps, res.Crashed, slices.Clone(res.Unperformed)}
	}
	fresh, err := NewRuntime(RuntimeOptions{M: 3, Capacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	warm, err := NewRuntime(RuntimeOptions{M: 3, Capacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.RunRound(1000, nil, sim.NewRandom(9)); err != nil {
		t.Fatal(err)
	}
	want := round(fresh)
	if want.Crashed != 2 {
		t.Fatalf("the seeded round crashed %d workers, want 2", want.Crashed)
	}
	for i, rt := range []*Runtime{warm, fresh} {
		if got := round(rt); !reflect.DeepEqual(got, want) {
			t.Errorf("run %d of the seeded round differs from the first: %d events, %d steps, %d crashed, residue %v; want %d, %d, %d, %v",
				i+2, len(got.Events), got.Steps, got.Crashed, got.Unperformed, len(want.Events), want.Steps, want.Crashed, want.Unperformed)
		}
	}

	iterative := func() outcome {
		var events []sim.Event
		res, err := Run(Options{N: 600, M: 3, Iterative: true, Adversary: seeded(), DoFn: func(pid, job int) {
			events = append(events, sim.Event{PID: pid, Job: int64(job)})
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != res.Events {
			t.Fatalf("the payload saw %d do events, the run counted %d", len(events), res.Events)
		}
		return outcome{events, res.Steps, res.Crashed, res.Unperformed}
	}
	if a, b := iterative(), iterative(); !reflect.DeepEqual(a, b) {
		t.Errorf("the seeded iterative run differs between runs: %d/%d events, %d/%d steps, %d/%d crashed",
			len(a.Events), len(b.Events), a.Steps, b.Steps, a.Crashed, b.Crashed)
	}
}
