package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"atmostonce/internal/denseset"
	"atmostonce/internal/sim"
)

// TestQuickKKSafetyAndBounds property-tests whole executions: for random
// (n, m, β, seed, crash budget), the run terminates, performs each job at
// most once and lands within the Theorem 4.4 / Definition 2.2 window.
func TestQuickKKSafetyAndBounds(t *testing.T) {
	f := func(nRaw, mRaw, betaRaw uint8, seed int64, crashy bool) bool {
		m := int(mRaw)%6 + 1
		n := m + int(nRaw)%120
		beta := m + int(betaRaw)%60
		fBudget := 0
		if crashy {
			fBudget = m - 1
		}
		sys, err := NewSystem(Config{N: n, M: m, Beta: beta, F: fBudget})
		if err != nil {
			return false
		}
		adv := sim.NewRandom(seed)
		if crashy {
			adv.CrashProb = 0.002
		}
		rep, err := sys.Run(adv, testStepLimit)
		if err != nil {
			return false
		}
		if rep.Duplicates != 0 || rep.Distinct > n {
			return false
		}
		lower := EffectivenessBound(n, m, beta)
		if lower < 0 {
			lower = 0
		}
		return rep.Distinct >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIterativeSafety property-tests IterativeKK(ε) executions.
func TestQuickIterativeSafety(t *testing.T) {
	f := func(nRaw uint16, mRaw, kRaw uint8, seed int64) bool {
		m := int(mRaw)%4 + 1
		n := m + int(nRaw)%900
		k := int(kRaw)%3 + 1
		sys, err := NewIterSystem(IterConfig{N: n, M: m, EpsDenom: k})
		if err != nil {
			return false
		}
		rep, err := sys.Run(sim.NewRandom(seed), testStepLimit)
		if err != nil {
			return false
		}
		return rep.Duplicates == 0 && rep.Distinct <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSuperJobSizes property-tests the size cascade: powers of two,
// strictly decreasing, mutually dividing, ending at 1.
func TestQuickSuperJobSizes(t *testing.T) {
	f := func(nRaw uint32, mRaw, kRaw uint8) bool {
		n := int(nRaw)%1_000_000 + 2
		m := int(mRaw)%64 + 1
		if n < m {
			n = m
		}
		k := int(kRaw)%5 + 1
		sizes := SuperJobSizes(n, m, k)
		if len(sizes) == 0 || sizes[len(sizes)-1] != 1 {
			return false
		}
		for i, s := range sizes {
			if s < 1 || s&(s-1) != 0 {
				return false
			}
			if i > 0 && (s >= sizes[i-1] || sizes[i-1]%s != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMapBlocksLossless property-tests the super-job map: for random
// block sets and nested power-of-two sizes, coverage is preserved exactly.
func TestQuickMapBlocksLossless(t *testing.T) {
	f := func(nRaw uint16, s1Exp, s2Exp uint8, picks []uint16) bool {
		n := int(nRaw)%5000 + 16
		e1 := int(s1Exp)%6 + 1 // s1 ∈ {2..64}
		e2 := int(s2Exp) % (e1 + 1)
		s1, s2 := 1<<e1, 1<<e2
		b1max := Blocks(n, s1)
		in := denseset.New()
		for _, p := range picks {
			in.Insert(int(p)%b1max + 1)
		}
		out := MapBlocks(denseset.New(), in, n, s1, s2)
		// Coverage must be identical.
		covered := make(map[int]bool)
		in.Ascend(func(b int) bool {
			lo, hi := BlockJobs(n, s1, b)
			for j := lo; j <= hi; j++ {
				covered[j] = true
			}
			return true
		})
		total := 0
		ok := true
		out.Ascend(func(b int) bool {
			lo, hi := BlockJobs(n, s2, b)
			for j := lo; j <= hi; j++ {
				if !covered[j] {
					ok = false
					return false
				}
				total++
			}
			return true
		})
		return ok && total == len(covered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneRoundTrip property-tests the model checker's snapshot
// machinery: stepping a clone-restored process reproduces the original's
// behavior exactly.
func TestQuickCloneRoundTrip(t *testing.T) {
	f := func(seed int64, k uint8) bool {
		sys, err := NewSystem(Config{N: 20, M: 2})
		if err != nil {
			return false
		}
		p := sys.Procs[0]
		// Advance some random number of steps.
		for i := 0; i < int(k)%30; i++ {
			if p.Status() != sim.Running {
				break
			}
			p.Step()
		}
		snap := p.SaveState()
		before := encodeState(p)
		// Mutate: take a few more steps, then restore.
		for i := 0; i < 5 && p.Status() == sim.Running; i++ {
			p.Step()
		}
		p.LoadState(snap)
		return encodeState(p) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// encodeState is AppendState's key plus the FREE it leaves out (a restore
// must bring FREE back too, whatever the memory holds).
func encodeState(p *Proc) string {
	buf := p.AppendState(nil)
	p.free.Ascend(func(v int) bool { buf = binary.AppendUvarint(buf, uint64(v)); return true })
	return string(buf)
}
