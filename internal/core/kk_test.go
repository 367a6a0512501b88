package core

import (
	"testing"

	"atmostonce/internal/denseset"
	"atmostonce/internal/sim"
)

const testStepLimit = 50_000_000

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runRR(t *testing.T, cfg Config) *Report {
	t.Helper()
	s := mustSystem(t, cfg)
	rep, err := s.Run(&sim.RoundRobin{}, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestPhaseString(t *testing.T) {
	phases := map[Phase]string{
		PhaseCompNext: "comp_next", PhaseSetNext: "set_next",
		PhaseGatherTry: "gather_try", PhaseGatherDone: "gather_done",
		PhaseCheck: "check", PhaseCheckFlag: "check_flag", PhaseDo: "do",
		PhaseDoneWrite: "done", PhaseTermFlag: "term_flag",
		PhaseEnd: "end", PhaseStop: "stop", Phase(99): "Phase(99)",
	}
	for ph, want := range phases {
		if got := ph.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(ph), got, want)
		}
	}
}

func TestLayoutAddresses(t *testing.T) {
	l := Layout{Base: 10, M: 3, RowLen: 5, HasFlag: true}
	if got := l.NextAddr(1); got != 10 {
		t.Errorf("NextAddr(1) = %d, want 10", got)
	}
	if got := l.NextAddr(3); got != 12 {
		t.Errorf("NextAddr(3) = %d, want 12", got)
	}
	if got := l.DoneAddr(1, 1); got != 13 {
		t.Errorf("DoneAddr(1,1) = %d, want 13", got)
	}
	if got := l.DoneAddr(2, 3); got != 20 {
		t.Errorf("DoneAddr(2,3) = %d, want 20", got)
	}
	if got := l.FlagAddr(); got != 28 {
		t.Errorf("FlagAddr = %d, want 28", got)
	}
	if got := l.Size(); got != 19 {
		t.Errorf("Size = %d, want 19", got)
	}
	l.HasFlag = false
	if got := l.Size(); got != 18 {
		t.Errorf("Size without flag = %d, want 18", got)
	}
}

func TestLayoutPaddedAddresses(t *testing.T) {
	l := Layout{Base: 10, M: 3, RowLen: 5, HasFlag: true}.Padded()
	// Next cells sit one cache line (CacheLineCells registers) apart.
	if got := l.NextAddr(1); got != 10 {
		t.Errorf("NextAddr(1) = %d, want 10", got)
	}
	if got := l.NextAddr(3); got != 10+2*CacheLineCells {
		t.Errorf("NextAddr(3) = %d, want %d", got, 10+2*CacheLineCells)
	}
	// The done matrix stays packed, starting right after the strided
	// next array.
	if got := l.DoneAddr(1, 1); got != 34 {
		t.Errorf("DoneAddr(1,1) = %d, want 34", got)
	}
	if got := l.DoneAddr(2, 3); got != 41 {
		t.Errorf("DoneAddr(2,3) = %d, want 41", got)
	}
	if got := l.FlagAddr(); got != 49 {
		t.Errorf("FlagAddr = %d, want 49", got)
	}
	if got := l.Size(); got != 40 {
		t.Errorf("Size = %d, want 40", got)
	}
	// Padding must never make two variables share an address: the last
	// next cell is strictly below the first done cell.
	if l.NextAddr(3) >= l.DoneAddr(1, 1) {
		t.Errorf("next array overlaps done matrix: %d >= %d", l.NextAddr(3), l.DoneAddr(1, 1))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{N: 5, M: 0}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewSystem(Config{N: 2, M: 3}); err == nil {
		t.Error("n < m accepted")
	}
	s, err := NewSystem(Config{N: 10, M: 3, F: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s.World.MaxCrashes != 2 {
		t.Errorf("F clamped to %d, want 2", s.World.MaxCrashes)
	}
	if s.Cfg.Beta != 3 {
		t.Errorf("default Beta = %d, want m=3", s.Cfg.Beta)
	}
}

func TestSingleProcessPerformsEverything(t *testing.T) {
	rep := runRR(t, Config{N: 25, M: 1})
	if rep.Distinct != 25 {
		t.Fatalf("Do(α) = %d, want 25", rep.Distinct)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("duplicates = %d", rep.Duplicates)
	}
}

func TestRoundRobinNoCrashesBounds(t *testing.T) {
	tests := []struct {
		n, m, beta int
	}{
		{10, 2, 0}, {50, 2, 0}, {50, 5, 0}, {100, 10, 0},
		{100, 4, 12}, {64, 8, 8}, {200, 3, 27}, // β = 3m²
	}
	for _, tt := range tests {
		rep := runRR(t, Config{N: tt.n, M: tt.m, Beta: tt.beta})
		lower := EffectivenessBound(tt.n, tt.m, tt.beta)
		if rep.Distinct < lower {
			t.Errorf("n=%d m=%d β=%d: Do = %d < bound %d",
				tt.n, tt.m, tt.beta, rep.Distinct, lower)
		}
		if rep.Distinct > tt.n {
			t.Errorf("n=%d m=%d: Do = %d > n", tt.n, tt.m, rep.Distinct)
		}
		if rep.Duplicates != 0 {
			t.Errorf("n=%d m=%d: %d duplicate do events (AMO violation)",
				tt.n, tt.m, rep.Duplicates)
		}
	}
}

func TestRandomSchedulesAMOAndBounds(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		cfg := Config{N: 80, M: 4}
		s := mustSystem(t, cfg)
		rep, err := s.Run(sim.NewRandom(seed), testStepLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Duplicates != 0 {
			t.Fatalf("seed %d: AMO violated (%d dups)", seed, rep.Duplicates)
		}
		if lower := EffectivenessBound(80, 4, 0); rep.Distinct < lower {
			t.Fatalf("seed %d: Do = %d < %d", seed, rep.Distinct, lower)
		}
	}
}

func TestRandomCrashesAMOAndBounds(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		cfg := Config{N: 60, M: 5, F: 4}
		s := mustSystem(t, cfg)
		adv := sim.NewRandom(seed)
		adv.CrashProb = 0.001
		rep, err := s.Run(adv, testStepLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Duplicates != 0 {
			t.Fatalf("seed %d: AMO violated (%d dups)", seed, rep.Duplicates)
		}
		// Lemma 4.2's accounting — at least one process terminates
		// voluntarily (f ≤ m−1), so the completed run performed at least
		// n−(β+m−2) jobs.
		if lower := EffectivenessBound(60, 5, 0); rep.Distinct < lower {
			t.Fatalf("seed %d: Do = %d < %d", seed, rep.Distinct, lower)
		}
	}
}

func TestBetaLessThanMStillSafe(t *testing.T) {
	// Correctness (Lemma 4.1) holds for any β; termination is not
	// guaranteed by the paper, but our implementation terminates
	// defensively instead of spinning. Safety is what we assert.
	for seed := int64(0); seed < 10; seed++ {
		s := mustSystem(t, Config{N: 30, M: 4, Beta: 1})
		rep, err := s.Run(sim.NewRandom(seed), testStepLimit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Duplicates != 0 {
			t.Fatalf("seed %d: AMO violated with β<m", seed)
		}
	}
}

func TestSoloProcessLeavesWorkForOthers(t *testing.T) {
	// Process 2 runs alone to completion, then the others finish.
	s := mustSystem(t, Config{N: 40, M: 3})
	rep, err := s.Run(&sim.Solo{PID: 2}, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated")
	}
	if s.Procs[1].Performed() == 0 {
		t.Fatal("solo process performed nothing")
	}
	if rep.Distinct < EffectivenessBound(40, 3, 0) {
		t.Fatalf("Do = %d below bound", rep.Distinct)
	}
}

func TestPerformedMatchesEvents(t *testing.T) {
	for _, keep := range []bool{false, true} {
		s := mustSystem(t, Config{N: 50, M: 4})
		if keep {
			s.World.KeepEvents() // a log on top: the tally still reads the marks
		}
		rep, err := s.Run(&sim.RoundRobin{}, testStepLimit)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range s.Procs {
			total += p.Performed()
		}
		if rep.Distinct+rep.Duplicates != total || rep.Distinct == 0 {
			t.Fatalf("Σ Performed = %d, marked %d distinct + %d duplicates", total, rep.Distinct, rep.Duplicates)
		}
		if keep && len(rep.Result.Events) != total {
			t.Fatalf("Σ Performed = %d, logged %d events", total, len(rep.Result.Events))
		}
	}
}

func TestWorkIsCounted(t *testing.T) {
	rep := runRR(t, Config{N: 64, M: 4})
	if rep.Work == 0 {
		t.Fatal("work not counted")
	}
	if rep.Result.MemReads == 0 || rep.Result.MemWrites == 0 {
		t.Fatal("memory accesses not counted")
	}
	// Work must dominate the raw access counts (it includes them).
	if rep.Work < rep.Result.MemReads+rep.Result.MemWrites {
		t.Fatalf("work %d < accesses %d", rep.Work, rep.Result.MemReads+rep.Result.MemWrites)
	}
}

func TestProcAccessors(t *testing.T) {
	s := mustSystem(t, Config{N: 10, M: 2})
	p := s.Procs[0]
	if p.ID() != 1 {
		t.Errorf("ID = %d", p.ID())
	}
	if p.Phase() != PhaseCompNext {
		t.Errorf("initial phase = %v", p.Phase())
	}
	if p.FreeLen() != 10 || p.DoneLen() != 0 || p.TryLen() != 0 {
		t.Errorf("initial sets: free=%d done=%d try=%d", p.FreeLen(), p.DoneLen(), p.TryLen())
	}
	if p.Output(denseset.New()) != nil {
		t.Error("Output non-nil before termination")
	}
	p.Step() // compNext
	if p.Phase() != PhaseSetNext {
		t.Errorf("after compNext phase = %v", p.Phase())
	}
	if p.NextJob() == 0 {
		t.Error("NEXT not set by compNext")
	}
	p.Crash()
	if p.Status() != sim.Crashed {
		t.Errorf("status after crash = %v", p.Status())
	}
}

func TestDistinctNextChoicesFromFreshState(t *testing.T) {
	// From identical fresh states, different processes must pick distinct
	// jobs (the interval-splitting rule of compNext) — the mechanism
	// behind the Theorem 4.4 adversary's STUCK set.
	s := mustSystem(t, Config{N: 100, M: 8})
	seen := make(map[int64]bool)
	for _, p := range s.Procs {
		p.Step() // compNext
		if seen[p.NextJob()] {
			t.Fatalf("processes chose the same job %d from fresh state", p.NextJob())
		}
		seen[p.NextJob()] = true
	}
}

func TestCollisionTrackingRecordsSomething(t *testing.T) {
	// Lock-step round-robin on a small job space forces collisions.
	s := mustSystem(t, Config{N: 12, M: 4, Beta: 4, TrackCollisions: true})
	if _, err := s.Run(&sim.RoundRobin{}, testStepLimit); err != nil {
		t.Fatal(err)
	}
	if s.Collisions == nil {
		t.Fatal("collision matrix nil")
	}
	// No self-collisions ever.
	for p := 1; p <= 4; p++ {
		if c := s.Collisions.Count(p, p); c != 0 {
			t.Fatalf("self-collision recorded for %d: %d", p, c)
		}
	}
}

func TestEffectivenessBoundHelpers(t *testing.T) {
	if got := EffectivenessBound(100, 5, 0); got != 100-(5+5-2) {
		t.Errorf("EffectivenessBound = %d", got)
	}
	if got := EffectivenessBound(100, 5, 75); got != 100-(75+5-2) {
		t.Errorf("EffectivenessBound β=75 = %d", got)
	}
	if got := UpperBound(100, 4); got != 96 {
		t.Errorf("UpperBound = %d", got)
	}
}

func TestPairBound(t *testing.T) {
	if got := PairBound(100, 4, 1, 3); got != 2*((100+7)/8) {
		t.Errorf("PairBound = %d", got)
	}
	if got := PairBound(100, 4, 3, 1); got != PairBound(100, 4, 1, 3) {
		t.Error("PairBound not symmetric")
	}
	if got := PairBound(100, 4, 2, 2); got != 0 {
		t.Errorf("PairBound same proc = %d", got)
	}
}

func TestCollisionMatrix(t *testing.T) {
	c := NewCollisionMatrix(3)
	c.Record(1, 2)
	c.Record(1, 2)
	c.Record(3, 1)
	if c.Count(1, 2) != 2 || c.Count(3, 1) != 1 || c.Count(2, 1) != 0 {
		t.Errorf("counts wrong: %d %d %d", c.Count(1, 2), c.Count(3, 1), c.Count(2, 1))
	}
	if c.Total() != 3 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.M() != 3 {
		t.Errorf("M = %d", c.M())
	}
}
