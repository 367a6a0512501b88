package core

import (
	"runtime"
	"testing"

	"atmostonce/internal/sim"
)

// TestLargeScaleKK runs a million-job instance through the simulator —
// a robustness check for the set code, the memory layout and the
// engine at realistic sizes (≈40 MB of registers, ≈10M actions).
func TestLargeScaleKK(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale run in -short mode")
	}
	const n, m = 1_000_000, 4
	s := mustSystem(t, Config{N: n, M: m})
	rep, err := s.Run(&sim.RoundRobin{}, 0 /* no step limit */)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated at scale")
	}
	if rep.Distinct < EffectivenessBound(n, m, 0) {
		t.Fatalf("Do = %d below bound %d", rep.Distinct, EffectivenessBound(n, m, 0))
	}
	t.Logf("n=1M m=4: Do=%d, steps=%d, work=%d", rep.Distinct, rep.Steps, rep.Work)
}

// TestNewSystemAllocatesWhatItTouches: a KK instance over 2^20 jobs and
// 64 processes has 64·2^20 registers, 512 MiB flat, but allocates only
// its page table, with no page made before a write, beside the three
// sets per process the paper calls for (≈ 24 MiB).
func TestNewSystemAllocatesWhatItTouches(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := mustSystem(t, Config{N: 1 << 20, M: 64})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Fatalf("NewSystem(n = 2^20, m = 64) allocates %d bytes, want ≤ 32 MiB", got)
	}
	runtime.KeepAlive(s)
}

// TestLargeScaleIterative runs IterativeKK(ε=1) at scale inside the
// work-optimal regime and checks the per-job work constant stays small.
func TestLargeScaleIterative(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale run in -short mode")
	}
	const n, m = 500_000, 4
	s, err := NewIterSystem(IterConfig{N: n, M: m, EpsDenom: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&sim.RoundRobin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated at scale")
	}
	perJob := float64(rep.Work) / float64(n)
	// Inside the regime the n-term dominates: per-job work must be far
	// below the ≈90 work/job of single-level KK_{3m²} at this size.
	if perJob > 40 {
		t.Fatalf("per-job work %.1f did not amortize", perJob)
	}
	t.Logf("n=500k m=4: loss=%d, work/job=%.2f, levels=%d",
		n-rep.Distinct, perJob, len(s.Levels))
}
