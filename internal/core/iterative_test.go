package core

import (
	"bytes"
	"testing"

	"atmostonce/internal/denseset"
	"atmostonce/internal/sim"
)

func TestSuperJobSizesShape(t *testing.T) {
	tests := []struct {
		n, m, k int
	}{
		{1000, 2, 1}, {1000, 4, 2}, {10000, 8, 1}, {10000, 8, 2},
		{100000, 16, 3}, {64, 2, 1}, {512, 3, 4},
	}
	for _, tt := range tests {
		sizes := SuperJobSizes(tt.n, tt.m, tt.k)
		if len(sizes) == 0 {
			t.Fatalf("n=%d m=%d: empty cascade", tt.n, tt.m)
		}
		if sizes[len(sizes)-1] != 1 {
			t.Errorf("n=%d m=%d: cascade does not end at 1: %v", tt.n, tt.m, sizes)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] >= sizes[i-1] {
				t.Errorf("n=%d m=%d: cascade not strictly decreasing: %v", tt.n, tt.m, sizes)
			}
			if sizes[i-1]%sizes[i] != 0 {
				t.Errorf("n=%d m=%d: %d does not divide %d", tt.n, tt.m, sizes[i], sizes[i-1])
			}
		}
		for _, s := range sizes {
			if s&(s-1) != 0 {
				t.Errorf("n=%d m=%d: size %d not a power of two", tt.n, tt.m, s)
			}
		}
	}
}

func TestBlocksAndBlockJobs(t *testing.T) {
	if got := Blocks(100, 32); got != 4 {
		t.Errorf("Blocks(100,32) = %d, want 4", got)
	}
	if got := Blocks(96, 32); got != 3 {
		t.Errorf("Blocks(96,32) = %d, want 3", got)
	}
	lo, hi := BlockJobs(100, 32, 1)
	if lo != 1 || hi != 32 {
		t.Errorf("block 1 = [%d,%d], want [1,32]", lo, hi)
	}
	lo, hi = BlockJobs(100, 32, 4)
	if lo != 97 || hi != 100 {
		t.Errorf("tail block = [%d,%d], want [97,100]", lo, hi)
	}
}

func TestMapBlocksLossless(t *testing.T) {
	const n, s1, s2 = 1000, 64, 16
	in := denseset.New(1, 3, 16) // block 16 is the truncated tail (jobs 961..1000)
	out := MapBlocks(denseset.New(), in, n, s1, s2)
	// Collect jobs covered by input and output; they must be identical.
	cover := func(set *denseset.Set, size int) map[int]bool {
		jobs := make(map[int]bool)
		set.Ascend(func(b int) bool {
			lo, hi := BlockJobs(n, size, b)
			for j := lo; j <= hi; j++ {
				jobs[j] = true
			}
			return true
		})
		return jobs
	}
	inJobs, outJobs := cover(in, s1), cover(out, s2)
	if len(inJobs) != len(outJobs) {
		t.Fatalf("coverage changed: %d -> %d jobs", len(inJobs), len(outJobs))
	}
	for j := range inJobs {
		if !outJobs[j] {
			t.Fatalf("job %d lost by map", j)
		}
	}
}

func TestMapBlocksSameSize(t *testing.T) {
	in := denseset.New(2, 5)
	out := MapBlocks(denseset.New(), in, 100, 8, 8)
	if out.Len() != 2 || !out.Contains(2) || !out.Contains(5) {
		t.Fatalf("identity map wrong: %v", out.Slice())
	}
	out.Insert(9)
	if in.Contains(9) {
		t.Fatal("MapBlocks aliases input")
	}
}

func TestIterConfigValidation(t *testing.T) {
	if _, err := NewIterSystem(IterConfig{N: 5, M: 0}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewIterSystem(IterConfig{N: 1, M: 3}); err == nil {
		t.Error("n<m accepted")
	}
	s, err := NewIterSystem(IterConfig{N: 100, M: 3, F: 77})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Beta != 27 {
		t.Errorf("default β = %d, want 3m²=27", s.Cfg.Beta)
	}
	if s.World.MaxCrashes != 2 {
		t.Errorf("F = %d, want clamped 2", s.World.MaxCrashes)
	}
	if s.Cfg.EpsDenom != 1 {
		t.Errorf("EpsDenom = %d, want 1", s.Cfg.EpsDenom)
	}
}

func TestIterativeRoundRobinSmall(t *testing.T) {
	s, err := NewIterSystem(IterConfig{N: 300, M: 3, EpsDenom: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&sim.RoundRobin{}, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("AMO violated across levels: %d dups", rep.Duplicates)
	}
	if rep.Distinct == 0 {
		t.Fatal("nothing performed")
	}
	if rep.Distinct > 300 {
		t.Fatalf("Do = %d > n", rep.Distinct)
	}
}

func TestIterativeRandomSeedsAMO(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s, err := NewIterSystem(IterConfig{N: 256, M: 2, EpsDenom: 2, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		adv := sim.NewRandom(seed)
		adv.CrashProb = 0.0005
		rep, err := s.Run(adv, testStepLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Duplicates != 0 {
			t.Fatalf("seed %d: AMO violated (%d dups)", seed, rep.Duplicates)
		}
	}
}

func TestIterativeEffectivenessLossBounded(t *testing.T) {
	// Theorem 6.4: unperformed jobs = O(m² log n log m). With no crashes
	// and a fair schedule the loss must stay within the theorem's
	// accounting, (1/ε+1)·(m−1)·m·lgn·lgm from TRY sets plus the last
	// level's β+m−2.
	const n, m, k = 4096, 3, 1
	s, err := NewIterSystem(IterConfig{N: n, M: m, EpsDenom: k})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&sim.RoundRobin{}, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated")
	}
	lgn, lgm := ceilLog2(n), ceilLog2(m)
	budget := (k+2)*(m-1)*m*lgn*lgm + 3*m*m + m - 2
	if loss := n - rep.Distinct; loss > budget {
		t.Fatalf("loss %d exceeds Theorem 6.4 budget %d", loss, budget)
	}
}

func TestIterProcLevelsAdvance(t *testing.T) {
	s, err := NewIterSystem(IterConfig{N: 500, M: 2, EpsDenom: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&sim.RoundRobin{}, testStepLimit); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Procs {
		if p.Status() != sim.Done {
			t.Fatalf("proc %d not done: %v", p.ID(), p.Status())
		}
		if p.Level() != len(s.Levels)-1 {
			t.Fatalf("proc %d finished at level %d of %d", p.ID(), p.Level(), len(s.Levels))
		}
	}
}

// TestIterLevelStartsFresh: the chain's one process, re-initialized at a
// level change, is in the state a process built for that level would be
// in — POS pointers at 1, DONE and TRY empty, no work — with FREE the
// mapped output of the level before.
func TestIterLevelStartsFresh(t *testing.T) {
	for _, writeAll := range []bool{false, true} {
		s, err := NewIterSystem(IterConfig{N: 1 << 12, M: 4, F: 3, WriteAll: writeAll})
		if err != nil {
			t.Fatal(err)
		}
		levels := make([]int, len(s.Procs))
		changes := 0
		check := func(*sim.World) {
			for i, p := range s.Procs {
				if p.inner == nil || p.Level() == levels[i] {
					continue
				}
				levels[i] = p.Level()
				if p.Status() != sim.Running {
					continue
				}
				changes++
				lv := s.Levels[p.Level()]
				fresh := NewProc(ProcOptions{ID: p.ID(), M: s.Cfg.M, Beta: s.Cfg.Beta, Layout: lv.Layout,
					Mem: s.Mem, Jobs: p.inner.free.Clone(), Universe: lv.Blocks, IterStep: true})
				if !bytes.Equal(p.inner.AppendState(nil), fresh.AppendState(nil)) || p.inner.Work() != 0 {
					t.Fatalf("process %d entered level %d in a state other than its start state", p.ID(), p.Level())
				}
			}
		}
		adv := sim.NewRandom(11)
		adv.CrashProb = 1e-4
		if _, err := s.Run(&sim.Observer{Inner: adv, Fn: check}, testStepLimit); err != nil {
			t.Fatal(err)
		}
		if changes < len(s.Procs) {
			t.Fatalf("only %d level changes observed", changes)
		}
	}
}

func TestIterativeWriteAllCoversEverything(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		const n = 400
		s, err := NewIterSystem(IterConfig{N: n, M: 3, EpsDenom: 1, F: 2, WriteAll: true})
		if err != nil {
			t.Fatal(err)
		}
		adv := sim.NewRandom(seed)
		adv.CrashProb = 0.0005
		rep, err := s.Run(adv, testStepLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Write-All: every job performed at least once (duplicates OK).
		if rep.Distinct != n {
			t.Fatalf("seed %d: covered %d of %d jobs", seed, rep.Distinct, n)
		}
	}
}

func TestIterativeCrashAll(t *testing.T) {
	// Crash m−1 processes at the very start: the survivor must still
	// complete and the run must stay safe.
	s, err := NewIterSystem(IterConfig{N: 200, M: 4, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	adv := &sim.CrashList{Victims: []int{1, 2, 3}, Then: &sim.RoundRobin{}}
	rep, err := s.Run(adv, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated")
	}
}
