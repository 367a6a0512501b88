package baseline

import (
	"testing"

	"atmostonce/internal/sim"
	"atmostonce/internal/verify"
)

const stepLimit = 20_000_000

// runWorld runs w with its do log kept, for the CheckEvents oracle, and
// checks the result's tally against the log.
func runWorld(t *testing.T, w *sim.World, adv sim.Adversary) *sim.Result {
	t.Helper()
	res, err := sim.Run(w.KeepEvents(), adv, stepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckEvents(res.Events); rep.Distinct != res.Distinct || len(res.Events)-rep.Distinct != res.Duplicates {
		t.Fatalf("tally %d distinct, %d duplicates; the log %d distinct of %d dos", res.Distinct, res.Duplicates, rep.Distinct, len(res.Events))
	}
	return res
}

func TestTrivialAllJobsNoCrashes(t *testing.T) {
	w, err := NewTrivialSystem(100, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runWorld(t, w, &sim.RoundRobin{})
	rep := verify.CheckEvents(res.Events)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Distinct != 100 {
		t.Fatalf("Do = %d, want 100", rep.Distinct)
	}
}

func TestTrivialEffectivenessUnderCrashes(t *testing.T) {
	const n, m, f = 100, 4, 2
	w, err := NewTrivialSystem(n, m, f)
	if err != nil {
		t.Fatal(err)
	}
	adv := &sim.CrashList{Victims: []int{1, 2}, Then: &sim.RoundRobin{}}
	res := runWorld(t, w, adv)
	rep := verify.CheckEvents(res.Events)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if want := TrivialEffectiveness(n, m, f); rep.Distinct != want {
		t.Fatalf("Do = %d, want (m-f)n/m = %d", rep.Distinct, want)
	}
}

func TestTrivialInvalidConfig(t *testing.T) {
	if _, err := NewTrivialSystem(2, 4, 0); err == nil {
		t.Fatal("n<m accepted")
	}
	if _, err := NewTrivialSystem(5, 0, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestTwoProcNoCrashesLosesAtMostOne(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		w, err := NewTwoProcSystem(40, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := runWorld(t, w, sim.NewRandom(seed))
		rep := verify.CheckEvents(res.Events)
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Distinct < 39 {
			t.Fatalf("seed %d: Do = %d < n-1 = 39", seed, rep.Distinct)
		}
	}
}

func TestTwoProcWithCrashOptimal(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		w, err := NewTwoProcSystem(30, 1)
		if err != nil {
			t.Fatal(err)
		}
		adv := sim.NewRandom(seed)
		adv.CrashProb = 0.02
		res := runWorld(t, w, adv)
		rep := verify.CheckEvents(res.Events)
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Distinct < 29 {
			t.Fatalf("seed %d: Do = %d < n-1 = 29 (two-process optimal)", seed, rep.Distinct)
		}
	}
}

func TestTwoProcSoloFinishesEverything(t *testing.T) {
	// Peer crashes before announcing: survivor performs all n jobs.
	w, err := NewTwoProcSystem(25, 1)
	if err != nil {
		t.Fatal(err)
	}
	adv := &sim.CrashList{Victims: []int{2}, Then: &sim.RoundRobin{}}
	res := runWorld(t, w, adv)
	rep := verify.CheckEvents(res.Events)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Distinct != 25 {
		t.Fatalf("Do = %d, want all 25", rep.Distinct)
	}
}

func TestTwoProcLockstepExhaustiveSchedules(t *testing.T) {
	// Drive the pair through many distinct deterministic interleavings by
	// scripting prefixes; safety must hold in all of them.
	patterns := [][]int{
		{1, 2, 1, 2, 1, 2}, {1, 1, 2, 2, 1, 1, 2, 2}, {2, 2, 2, 1, 1, 1},
		{1, 2, 2, 1, 2, 1, 1, 2}, {2, 1, 1, 1, 1, 2, 2, 2},
	}
	for _, pat := range patterns {
		w, err := NewTwoProcSystem(10, 0)
		if err != nil {
			t.Fatal(err)
		}
		var script []sim.Decision
		for r := 0; r < 10; r++ {
			for _, pid := range pat {
				script = append(script, sim.StepOf(pid))
			}
		}
		res := runWorld(t, w, &sim.Scripted{Script: script, Then: &sim.RoundRobin{}})
		rep := verify.CheckEvents(res.Events)
		if err := rep.Err(); err != nil {
			t.Fatalf("pattern %v: %v", pat, err)
		}
		if rep.Distinct < 9 {
			t.Fatalf("pattern %v: Do = %d < 9", pat, rep.Distinct)
		}
	}
}

func TestTwoProcInvalid(t *testing.T) {
	if _, err := NewTwoProcSystem(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestPairedSafeAndEffective(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 8} {
		for seed := int64(0); seed < 10; seed++ {
			w, err := NewPairedSystem(120, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			res := runWorld(t, w, sim.NewRandom(seed))
			rep := verify.CheckEvents(res.Events)
			if err := rep.Err(); err != nil {
				t.Fatalf("m=%d seed %d: %v", m, seed, err)
			}
			// Each of the ⌈m/2⌉ slices loses at most one job.
			slices := (m + 1) / 2
			if rep.Distinct < 120-slices {
				t.Fatalf("m=%d seed %d: Do = %d < %d", m, seed, rep.Distinct, 120-slices)
			}
		}
	}
}

func TestPairedSurvivesSingleCrashPerPair(t *testing.T) {
	// Crash one member of each pair: every slice still completes (minus
	// at most the announced job per slice).
	const n, m = 80, 4
	w, err := NewPairedSystem(n, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	adv := &sim.CrashList{Victims: []int{1, 4}, Then: &sim.RoundRobin{}}
	res := runWorld(t, w, adv)
	rep := verify.CheckEvents(res.Events)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Distinct < n-2 {
		t.Fatalf("Do = %d < n-2 = %d", rep.Distinct, n-2)
	}
}

func TestTASOptimalEffectiveness(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		const n, m, f = 60, 3, 2
		w, err := NewTASSystem(n, m, f)
		if err != nil {
			t.Fatal(err)
		}
		adv := sim.NewRandom(seed)
		adv.CrashProb = 0.01
		res := runWorld(t, w, adv)
		rep := verify.CheckEvents(res.Events)
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Theorem 2.1's n−f is achieved by the TAS algorithm.
		if rep.Distinct < n-res.Crashes {
			t.Fatalf("seed %d: Do = %d < n-f = %d", seed, rep.Distinct, n-res.Crashes)
		}
	}
}

func TestTASNoCrashesDoesEverything(t *testing.T) {
	w, err := NewTASSystem(50, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runWorld(t, w, &sim.RoundRobin{})
	rep := verify.CheckEvents(res.Events)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Distinct != 50 {
		t.Fatalf("Do = %d, want 50", rep.Distinct)
	}
}
