package harness

import (
	"fmt"
	"math"

	"atmostonce/internal/adversary"
	"atmostonce/internal/baseline"
	"atmostonce/internal/core"
	"atmostonce/internal/sim"
	"atmostonce/internal/writeall"
)

// E5Iterative reproduces Theorem 6.4: IterativeKK(ε) loses at most
// O(m²·log n·log m) jobs and spends O(n + m^{3+ε}·log n) work.
func (s Suite) E5Iterative() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "IterativeKK(ε): effectiveness n−O(m²·lgn·lgm), work O(n+m^{3+ε}·lgn)",
		Claim:  "Theorem 6.4",
		Header: []string{"n", "m", "1/ε", "levels", "jobs lost", "loss/(m²·lgn·lgm)", "work", "work/(n+m^{3+ε}·lgn)"},
		Pass:   true,
	}
	ns := []int{8192, 32768}
	ms := []int{2, 4, 8}
	ks := []int{1, 2}
	if s.Quick {
		ns, ms, ks = []int{8192}, []int{2, 4}, []int{1}
	}
	for _, n := range ns {
		for _, m := range ms {
			for _, k := range ks {
				sys, err := core.NewIterSystem(core.IterConfig{N: n, M: m, EpsDenom: k})
				if err != nil {
					t.fail(err)
					continue
				}
				rep, err := sys.Run(&sim.RoundRobin{}, stepLimit)
				if err != nil {
					t.fail(err)
					continue
				}
				if rep.Duplicates != 0 {
					t.Pass = false
				}
				loss := n - rep.Distinct
				lossDenom := float64(m*m) * float64(lg(n)) * float64(lg(m))
				eps := 1.0 / float64(k)
				workDenom := float64(n) + math.Pow(float64(m), 3+eps)*float64(lg(n))
				// Loss must stay within the Theorem 6.4 accounting
				// ((1/ε+2) TRY-set levels plus the final β+m−2).
				budget := (k+2)*(m-1)*m*lg(n)*lg(m) + 3*m*m + m - 2
				if loss > budget {
					t.Pass = false
				}
				t.Rows = append(t.Rows, []string{
					itoa(n), itoa(m), itoa(k), itoa(len(sys.Levels)),
					itoa(loss), ftoa(float64(loss) / lossDenom),
					utoa(rep.Work), ftoa(float64(rep.Work) / workDenom),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"‘loss/(m²·lgn·lgm)’ bounded ⇒ effectiveness claim holds; ‘work/(n+m^{3+ε}·lgn)’ bounded ⇒ work claim holds.",
		"Super-job sizes are the paper's cascade rounded to powers of two so that map() nests levels exactly (DESIGN.md §2).",
		"Rows with n < 3m³·lgn·lgm sit outside Theorem 6.4's work-optimal regime (cf. E8): the coarse levels degenerate (block count < β = 3m²) and the run collapses to KK_{3m²} on raw jobs, which is why their work constants are large. Within the regime (m ≤ 4 here) the constants shrink as n grows.")
	return t
}

// E6WriteAll reproduces Theorem 7.1: WA_IterativeKK(ε) writes all n cells
// with work O(n+m^{3+ε}·lgn). The distinguishing shape against the
// Θ(n·m) baselines: with m fixed inside the work-optimal frontier,
// WA_IterativeKK's per-cell work FALLS as n grows (the m-term amortizes)
// while every baseline's per-cell work is pinned at Θ(m) forever.
func (s Suite) E6WriteAll() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "WA_IterativeKK(ε): Write-All with work O(n+m^{3+ε}·log n)",
		Claim:  "Theorem 7.1: all cells written; per-cell work amortizes to O(1) in n, vs Θ(m) for the baselines",
		Header: []string{"n", "m", "algorithm", "complete", "writes", "work", "work/n"},
		Pass:   true,
	}
	type cfg struct{ n, m int }
	cfgs := []cfg{{8192, 4}, {32768, 4}, {131072, 4}, {524288, 4}, {32768, 8}}
	if s.Quick {
		cfgs = []cfg{{8192, 4}, {32768, 4}}
	}
	var kkSeries []float64
	for _, c := range cfgs {
		type res struct {
			name string
			rep  *writeall.Report
			err  error
		}
		kk, errKK := writeall.RunIterKK(c.n, c.m, 1, 0, &sim.RoundRobin{}, stepLimit)
		tr, errTR := writeall.RunTrivial(c.n, c.m, 0, &sim.RoundRobin{}, stepLimit)
		cs, errCS := writeall.RunCheckSweep(c.n, c.m, 0, &sim.RoundRobin{}, stepLimit)
		for _, r := range []res{
			{"WA_IterativeKK(ε=1)", kk, errKK},
			{"WA_Trivial", tr, errTR},
			{"WA_CheckSweep", cs, errCS},
		} {
			if r.err != nil {
				t.fail(r.err)
				continue
			}
			if !r.rep.Complete() {
				t.Pass = false
			}
			perCell := float64(r.rep.Work) / float64(c.n)
			if r.name == "WA_IterativeKK(ε=1)" && c.m == 4 {
				kkSeries = append(kkSeries, perCell)
			}
			t.Rows = append(t.Rows, []string{
				itoa(c.n), itoa(c.m), r.name, mark(r.rep.Complete()),
				itoa(r.rep.Writes), utoa(r.rep.Work), ftoa(perCell),
			})
		}
	}
	// Shape assertion: per-cell work strictly decreasing along the m=4,
	// growing-n series (the n-term takes over, Theorem 7.1's shape).
	for i := 1; i < len(kkSeries); i++ {
		if kkSeries[i] >= kkSeries[i-1] {
			t.Pass = false
		}
	}
	t.Notes = append(t.Notes,
		"WA_IterativeKK's work/n falls monotonically as n grows at fixed m (the O(m^{3+ε}·log n) term amortizes); the baselines stay pinned at m and m+1 writes/reads per cell at every n.",
		"The absolute crossover vs the Θ(n·m) baselines sits where m exceeds the per-cell constant, which requires n ≳ 3m³·lg n·lg m (the Theorem 6.4 regime) — beyond what a simulation sweep reaches; the measured exponent shape is the reproducible evidence at this scale.")
	return t
}

// E7Comparison reproduces the paper's positioning (§1, §8): KKβ's
// worst-case effectiveness beats the trivial split and the prior
// deterministic art, and approaches the TAS/upper-bound reference lines.
func (s Suite) E7Comparison() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Worst-case effectiveness: KKβ vs baselines",
		Claim:  "§1: previous best deterministic effectiveness n−lgm·o(n) [26]; trivial (m−f)·n/m; upper bound n−f (Thm 2.1)",
		Header: []string{"n", "m", "f", "algorithm", "worst measured Do", "analytic reference"},
		Pass:   true,
	}
	const n = 4096
	m := 8
	if s.Quick {
		m = 4
	}
	for _, f := range []int{0, m / 2, m - 1} {
		victims := make([]int, f)
		for i := range victims {
			victims[i] = i + 1
		}
		crashStart := func() sim.Adversary {
			vs := make([]int, len(victims))
			copy(vs, victims)
			return &sim.CrashList{Victims: vs, Then: &sim.RoundRobin{}}
		}

		// KKβ (β=m): worst over crash-at-start, random, tightness (f=m−1 only).
		kkWorst := n + 1
		runKK := func(adv sim.Adversary) {
			sys, err := core.NewSystem(core.Config{N: n, M: m, F: f})
			if err != nil {
				t.fail(err)
				return
			}
			rep, err := sys.Run(adv, stepLimit)
			if err != nil {
				t.fail(err)
				return
			}
			if rep.Duplicates != 0 {
				t.Pass = false
			}
			if rep.Distinct < kkWorst {
				kkWorst = rep.Distinct
			}
		}
		runKK(crashStart())
		for seed := int64(0); seed < 3; seed++ {
			adv := sim.NewRandom(seed)
			if f > 0 {
				adv.CrashProb = 0.001
			}
			runKK(adv)
		}
		if f == m-1 {
			runKK(&adversary.Tightness{})
		}
		kkRef := core.EffectivenessBound(n, m, 0)
		if kkWorst < kkRef {
			t.Pass = false
		}
		t.Rows = append(t.Rows, []string{itoa(n), itoa(m), itoa(f), "KKβ (β=m)", itoa(kkWorst),
			fmt.Sprintf("≥ n−2m+2 = %d", kkRef)})

		// Paired two-process baseline.
		pairWorst := runBaselineWorst(t, f, func() (*sim.World, error) { return baseline.NewPairedSystem(n, m, f) }, crashStart)
		t.Rows = append(t.Rows, []string{itoa(n), itoa(m), itoa(f), "Paired 2-proc [26]-style", itoa(pairWorst),
			"n − ⌊f/2⌋·2n/m − O(m)"})

		// Trivial split.
		trivWorst := runBaselineWorst(t, f, func() (*sim.World, error) { return baseline.NewTrivialSystem(n, m, f) }, crashStart)
		trivRef := baseline.TrivialEffectiveness(n, m, f)
		if trivWorst < trivRef {
			t.Pass = false
		}
		t.Rows = append(t.Rows, []string{itoa(n), itoa(m), itoa(f), "Trivial split (§2.2)", itoa(trivWorst),
			fmt.Sprintf("(m−f)·n/m = %d", trivRef)})

		// TAS reference.
		tasWorst := runBaselineWorst(t, f, func() (*sim.World, error) { return baseline.NewTASSystem(n, m, f) }, crashStart)
		t.Rows = append(t.Rows, []string{itoa(n), itoa(m), itoa(f), "TAS reference (§1)", itoa(tasWorst),
			fmt.Sprintf("n−f = %d", n-f)})

		// Prior deterministic art [26], analytic only.
		kkns := math.Pow(math.Pow(float64(n), 1/float64(lg(m)))-1, float64(lg(m)))
		t.Rows = append(t.Rows, []string{itoa(n), itoa(m), itoa(f), "KKNS multi-process [26] (analytic)", "—",
			fmt.Sprintf("(n^{1/lgm}−1)^{lgm} = %.0f", kkns)})
	}
	t.Notes = append(t.Notes,
		"‘Worst measured Do’ is the minimum over crash-at-start, three random-crash seeds and (for f=m−1) the Theorem 4.4 strategy.",
		"The full multi-process algorithm of [26] is not reconstructable from this paper's text; its effectiveness formula is reported analytically (DESIGN.md §2).",
		"Ordering check: KKβ ≥ Paired ≥ Trivial under crashes, with TAS/n−f as the unattainable-by-R/W reference.")
	return t
}

func runBaselineWorst(t *Table, f int, mk func() (*sim.World, error), crashStart func() sim.Adversary) int {
	worst := 1 << 30
	run := func(adv sim.Adversary) {
		w, err := mk()
		if err != nil {
			t.fail(err)
			return
		}
		res, err := sim.Run(w, adv, stepLimit)
		if err != nil {
			t.fail(err)
			return
		}
		if res.Duplicates != 0 {
			t.Pass = false
		}
		worst = min(worst, res.Distinct)
	}
	run(crashStart())
	for seed := int64(0); seed < 3; seed++ {
		adv := sim.NewRandom(seed)
		if f > 0 {
			adv.CrashProb = 0.001
		}
		run(adv)
	}
	return worst
}

// E8Crossover reproduces the work-optimality frontier: IterativeKK(ε) has
// work O(n) exactly while m = O((n/log n)^{1/(3+ε)}); past that point the
// m-term dominates and work/n blows up.
func (s Suite) E8Crossover() *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Work-optimality range of IterativeKK(ε)",
		Claim:  "Theorem 6.4 / §6: work-optimal for m = O((n/log n)^{1/(3+ε)})",
		Header: []string{"n", "m", "work", "work/n", "m vs (n/lgn)^{1/4}"},
		Pass:   true,
	}
	n := 16384
	ms := []int{2, 4, 8, 16, 32}
	if s.Quick {
		n, ms = 8192, []int{2, 8, 32}
	}
	frontier := math.Pow(float64(n)/float64(lg(n)), 0.25) // ε=1 ⇒ exponent 1/4
	var inside, outside float64
	for _, m := range ms {
		sys, err := core.NewIterSystem(core.IterConfig{N: n, M: m, EpsDenom: 1})
		if err != nil {
			t.fail(err)
			continue
		}
		rep, err := sys.Run(&sim.RoundRobin{}, stepLimit)
		if err != nil {
			t.fail(err)
			continue
		}
		ratio := float64(rep.Work) / float64(n)
		rel := "inside"
		if float64(m) > frontier {
			rel = "outside"
			if ratio > outside {
				outside = ratio
			}
		} else if ratio > inside {
			inside = ratio
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(m), utoa(rep.Work), ftoa(ratio),
			fmt.Sprintf("%s (frontier ≈ %.1f)", rel, frontier),
		})
	}
	if outside > 0 && inside > 0 && outside <= inside {
		// The crossover should be visible: work/n grows once m passes
		// the frontier.
		t.Pass = false
	}
	t.Notes = append(t.Notes,
		"Inside the frontier work/n is a small constant; outside it the m^{3+ε}·lg n term dominates, matching the theorem's optimality range.")
	return t
}
