package core

import (
	"testing"

	"atmostonce/internal/sim"
)

// TestExecutionInvariants drives KKβ under several adversaries while
// asserting, at every single step, the structural invariants the paper's
// proofs rely on:
//
//  1. |TRY_p| ≤ m−1 (used in Lemma 4.2's accounting);
//  2. FREE_p never grows: an id that left it never returns;
//  3. FREE_p holds no job of the done matrix below POS_p(q), for every row
//     q, p's own included: what p gathered or did is out of FREE (Figure
//     2's DONE_p, which is J \ FREE_p);
//  4. after setNext and until the next compNext, the shared register
//     next_p holds NEXT_p (the announcement argument of Lemma 4.1);
//  5. POS_p(q) pointers are monotone and within [1, n+1];
//  6. the done matrix holds a nonzero prefix per row and all nonzero
//     entries across ALL rows are distinct (published jobs are unique —
//     the shared-memory shadow of Lemma 4.1).
func TestExecutionInvariants(t *testing.T) {
	const n, m = 60, 3
	adversaries := map[string]func() sim.Adversary{
		"round-robin": func() sim.Adversary { return &sim.RoundRobin{} },
		"random":      func() sim.Adversary { return sim.NewRandom(5) },
		"random-crash": func() sim.Adversary {
			a := sim.NewRandom(9)
			a.CrashProb = 0.002
			return a
		},
	}
	for name, mk := range adversaries {
		t.Run(name, func(t *testing.T) {
			s := mustSystem(t, Config{N: n, M: m, F: m - 1})
			left := make([][]bool, m+1) // left[p][v]: v has left FREE_p
			prevPos := make([][]int, m+1)
			for p := 1; p <= m; p++ {
				prevPos[p] = make([]int, m+1)
				left[p] = make([]bool, n+1)
				for q := 1; q <= m; q++ {
					prevPos[p][q] = 1
				}
			}
			check := func(w *sim.World) {
				for i, sp := range w.Procs {
					p := sp.(*Proc)
					pid := i + 1
					if p.Status() == sim.Crashed {
						continue
					}
					if p.TryLen() > m-1 {
						t.Fatalf("proc %d: |TRY| = %d > m-1", pid, p.TryLen())
					}
					for v := 1; v <= n; v++ {
						in := p.FreeContains(v)
						if in && left[pid][v] {
							t.Fatalf("proc %d: job %d came back into FREE", pid, v)
						}
						left[pid][v] = !in
					}
					for q := 1; q <= m; q++ {
						for idx := 1; idx < p.PosOf(q); idx++ {
							if v := s.Mem.Peek(s.Layout.DoneAddr(q, idx)); p.FreeContains(int(v)) {
								t.Fatalf("proc %d: job %d, done row %d index %d < POS, still in FREE", pid, v, q, idx)
							}
						}
					}
					switch p.Phase() {
					case PhaseGatherTry, PhaseGatherDone, PhaseCheck, PhaseDo, PhaseDoneWrite:
						if got := s.Mem.Peek(s.Layout.NextAddr(pid)); got != p.NextJob() {
							t.Fatalf("proc %d: register next=%d but NEXT=%d in phase %v",
								pid, got, p.NextJob(), p.Phase())
						}
					}
					for q := 1; q <= m; q++ {
						pos := p.PosOf(q)
						if pos < prevPos[pid][q] || pos > n+1 {
							t.Fatalf("proc %d: POS(%d) moved %d -> %d", pid, q, prevPos[pid][q], pos)
						}
						prevPos[pid][q] = pos
					}
				}
				// Done-matrix shadow of Lemma 4.1: nonzero prefixes, all
				// published jobs globally distinct.
				seen := make(map[int64]bool)
				for q := 1; q <= m; q++ {
					zeroSeen := false
					for idx := 1; idx <= n; idx++ {
						v := s.Mem.Peek(s.Layout.DoneAddr(q, idx))
						if v == 0 {
							zeroSeen = true
							continue
						}
						if zeroSeen {
							t.Fatalf("done row %d has a gap before index %d", q, idx)
						}
						if seen[v] {
							t.Fatalf("job %d published twice in the done matrix", v)
						}
						seen[v] = true
					}
				}
			}
			s.World.Watch = check
			rep, err := s.Run(mk(), testStepLimit)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Duplicates != 0 {
				t.Fatal("AMO violated")
			}
		})
	}
}

// TestInvariantObserverSeesEveryStep sanity-checks the world's Watch
// plumbing: the invariant check sees every step, the forced tail's too.
func TestInvariantObserverSeesEveryStep(t *testing.T) {
	s := mustSystem(t, Config{N: 10, M: 2})
	calls := 0
	s.World.Watch = func(*sim.World) { calls++ }
	rep, err := s.Run(&sim.RoundRobin{}, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(calls) != rep.Steps {
		t.Fatalf("Watch called %d times for %d steps", calls, rep.Steps)
	}
}
