package adversary

import (
	"slices"
	"testing"

	"atmostonce/internal/core"
	"atmostonce/internal/sim"
)

const stepLimit = 50_000_000

// TestTightnessExact reproduces Theorem 4.4's matching adversarial
// strategy: the execution completes exactly n−(β+m−2) jobs — not one more,
// not one less.
func TestTightnessExact(t *testing.T) {
	tests := []struct {
		n, m, beta int
	}{
		{50, 2, 0}, {50, 4, 0}, {100, 8, 0}, {200, 16, 0},
		{100, 4, 48},  // β = 3m²
		{1000, 5, 75}, // β = 3m²
	}
	for _, tt := range tests {
		s, err := core.NewSystem(core.Config{N: tt.n, M: tt.m, Beta: tt.beta, F: tt.m - 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(&Tightness{}, stepLimit)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tt.n, tt.m, err)
		}
		want := core.EffectivenessBound(tt.n, tt.m, tt.beta)
		if rep.Distinct != want {
			t.Errorf("n=%d m=%d β=%d: Do = %d, want exactly %d",
				tt.n, tt.m, tt.beta, rep.Distinct, want)
		}
		if rep.Duplicates != 0 {
			t.Errorf("n=%d m=%d: AMO violated", tt.n, tt.m)
		}
		if rep.Result.Crashes != tt.m-1 {
			t.Errorf("n=%d m=%d: crashes = %d, want m-1", tt.n, tt.m, rep.Result.Crashes)
		}
	}
}

// TestKeptLiveSetIsExact: the live set sim.Run keeps is, before every
// decision, the ascending ids of the Running processes, whether they stop
// by ending, by a random crash, at an announcement, or by a crash list
// and a script.
func TestKeptLiveSetIsExact(t *testing.T) {
	random := func(seed int64) sim.Adversary {
		a := sim.NewRandom(seed)
		a.CrashProb = 0.01
		return a
	}
	script := []sim.Decision{sim.CrashOf(6), sim.StepOf(1), sim.StepOf(1), sim.CrashOf(1), sim.StepOf(3)}
	for _, tc := range []struct {
		name    string
		m       int
		adv     sim.Adversary
		crashes bool
	}{
		{"random m=3", 3, random(1), true},
		{"random m=64", 64, random(2), true},
		{"tightness", 8, &Tightness{}, true},
		{"staircase", 8, &Staircase{}, false},
		{"alternator", 8, &Alternator{}, false},
		{"crash list then script", 6, &sim.CrashList{Victims: []int{2, 5}, Then: &sim.Scripted{Script: script, Then: &sim.RoundRobin{}}}, true},
	} {
		s, err := core.NewSystem(core.Config{N: 256, M: tc.m, F: tc.m - 1})
		if err != nil {
			t.Fatal(err)
		}
		var scan []int
		decisions := 0
		obs := &sim.Observer{Inner: tc.adv, Fn: func(w *sim.World) {
			scan = scan[:0]
			for _, p := range w.Procs {
				if p.Status() == sim.Running {
					scan = append(scan, p.ID())
				}
			}
			if live := w.Live(); !slices.Equal(live, scan) {
				t.Fatalf("%s, decision %d: Live = %v, the processes say %v", tc.name, decisions, live, scan)
			}
			decisions++
		}}
		rep, err := s.Run(obs, stepLimit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.crashes != (rep.Result.Crashes > 0) || rep.Duplicates != 0 {
			t.Errorf("%s: %d crashes, %d duplicates", tc.name, rep.Result.Crashes, rep.Duplicates)
		}
	}
}

// TestTightnessIsWorstCase cross-checks Theorem 2.1: the tightness
// execution's Do is also ≤ n − f with f = m−1.
func TestTightnessIsWorstCase(t *testing.T) {
	const n, m = 60, 4
	s, err := core.NewSystem(core.Config{N: n, M: m, F: m - 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&Tightness{}, stepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Distinct > core.UpperBound(n, m-1) {
		t.Fatalf("Do = %d exceeds n-f = %d", rep.Distinct, core.UpperBound(n, m-1))
	}
}

func TestStaircaseSafeAndTerminates(t *testing.T) {
	s, err := core.NewSystem(core.Config{N: 120, M: 4, Beta: 48, TrackCollisions: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&Staircase{}, stepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated under staircase schedule")
	}
	if rep.Distinct < core.EffectivenessBound(120, 4, 48) {
		t.Fatalf("Do = %d below bound", rep.Distinct)
	}
}

func TestAlternatorSafeAndTerminates(t *testing.T) {
	s, err := core.NewSystem(core.Config{N: 100, M: 5, TrackCollisions: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&Alternator{}, stepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated under alternator schedule")
	}
}

// TestCollisionBoundLemma55 checks Lemma 5.5's pairwise collision bound
// 2⌈n/(m|q−p|)⌉ for β ≥ 3m² under collision-maximizing schedules.
func TestCollisionBoundLemma55(t *testing.T) {
	const n, m = 300, 4
	beta := 3 * m * m
	for _, adv := range []sim.Adversary{&Staircase{}, &Alternator{}, sim.NewRandom(7)} {
		s, err := core.NewSystem(core.Config{N: n, M: m, Beta: beta, TrackCollisions: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(adv, stepLimit); err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= m; p++ {
			for q := 1; q <= m; q++ {
				if p == q {
					continue
				}
				if got, bound := s.Collisions.Count(p, q), core.PairBound(n, m, p, q); got > bound {
					t.Errorf("%T: collisions(%d,%d) = %d > bound %d", adv, p, q, got, bound)
				}
			}
		}
	}
}
