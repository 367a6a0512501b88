package core

import (
	"math/rand"
	"testing"

	"atmostonce/internal/sim"
)

// stepChecked steps x, whose KK process is inner (nil when it has none),
// and checks a compNext of inner that selects: the select walked from the
// finger must answer what SelectSkipping computes from scratch. It returns
// how many compNexts it checked.
func stepChecked(t *testing.T, x sim.Process, inner *Proc) int {
	t.Helper()
	if inner == nil || inner.phase != PhaseCompNext {
		x.Step()
		return 0
	}
	f, m, idx := inner.free.Len(), inner.lay.M, inner.id
	if f-(m-1) >= m {
		idx = (inner.id-1)*(f-m+1)/m + 1
	}
	want, ok := inner.free.SelectSkipping(inner.try, idx)
	x.Step()
	if inner.phase != PhaseSetNext {
		return 0
	}
	if !ok || inner.next != int64(want) {
		t.Fatalf("process %d: compNext selected %d at rank %d, SelectSkipping %d,%v", inner.id, inner.next, idx, want, ok)
	}
	return 1
}

// runChecked steps random running processes of procs, checking every
// compNext, until none runs or limit steps were taken (0: no limit). It
// returns how many compNexts it checked.
func runChecked(t *testing.T, procs []*Proc, rng *rand.Rand, limit int) int {
	t.Helper()
	checked := 0
	for step := 0; limit == 0 || step < limit; step++ {
		live := procs[:0:0]
		for _, p := range procs {
			if p.Status() == sim.Running {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			break
		}
		p := live[rng.Intn(len(live))]
		checked += stepChecked(t, p, p)
	}
	return checked
}

// TestFingerMatchesSelectSkipping: at every compNext of seeded KKβ runs
// whose n crosses word, block (4096 ids) and super-block (2^18 ids)
// edges, the finger's select answers what SelectSkipping computes from
// scratch — through runs, a Reset partway through a run, and a
// Clone/RestoreFrom branch of every process and the memory.
func TestFingerMatchesSelectSkipping(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{63, 2}, {65, 3}, {4095, 4}, {4097, 8}, {3*4096 + 1, 5}, {1<<18 + 65, 2},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		s := mustSystem(t, Config{N: tc.n, M: tc.m})
		checked := runChecked(t, s.Procs, rng, 3*tc.n) // part of a run

		// Reset every process partway through, over a zeroed memory.
		s.Mem.Restore(make([]int64, s.Layout.Size()))
		for _, p := range s.Procs {
			p.Reset(tc.n)
		}
		checked += runChecked(t, s.Procs, rng, 2*tc.n)

		// Branch: clone every process and the memory, run on, restore.
		snap, clones := s.Mem.Snapshot(), make([]*Proc, tc.m)
		for i, p := range s.Procs {
			clones[i] = p.Clone()
		}
		checked += runChecked(t, s.Procs, rng, tc.n)
		s.Mem.Restore(snap)
		for i, p := range s.Procs {
			p.RestoreFrom(clones[i])
		}
		checked += runChecked(t, s.Procs, rng, 0)
		if checked < tc.n/2 {
			t.Fatalf("n=%d m=%d: only %d compNexts checked", tc.n, tc.m, checked)
		}
	}
}
