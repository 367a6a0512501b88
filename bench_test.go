package atmostonce

import (
	"context"
	"fmt"
	"testing"
	"time"

	"atmostonce/internal/adversary"
	"atmostonce/internal/core"
	"atmostonce/internal/denseset"
	"atmostonce/internal/harness"
	"atmostonce/internal/oset"
	"atmostonce/internal/sim"
	"atmostonce/internal/writeall"
)

// One benchmark per reproduction experiment (DESIGN.md §4). Each iteration
// runs the experiment's core workload and reports the headline metric via
// b.ReportMetric, so `go test -bench=.` regenerates every result of
// EXPERIMENTS.md in miniature; `go run ./cmd/amo-bench` prints the full
// E1–E9 tables. (System performance is measured by `go run ./bench`.)

const benchStepLimit = 2_000_000_000

// BenchmarkE1Effectiveness: Theorem 4.4 — tightness adversary lands on
// exactly n−(β+m−2).
func BenchmarkE1Effectiveness(b *testing.B) {
	const n, m = 4096, 8
	var do int
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{N: n, M: m, F: m - 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run(&adversary.Tightness{}, benchStepLimit)
		if err != nil {
			b.Fatal(err)
		}
		do = rep.Distinct
		if do != core.EffectivenessBound(n, m, 0) {
			b.Fatalf("Do = %d, want %d", do, core.EffectivenessBound(n, m, 0))
		}
	}
	b.ReportMetric(float64(do), "jobs-done")
	b.ReportMetric(float64(n-do), "jobs-lost")
}

// BenchmarkSimulate: the engine's cost per step of KKβ under a random
// schedule as m and n grow. Run keeps the live set the adversary draws
// from, so ns/step should stay nearly flat in m; the sets' searches skip
// empty words, blocks and super-blocks, so it should stay nearly flat in
// n too (n = 2^20 against n = 2^14 at m = 8). The last two rows are
// paper_batch's two simulations: Tightness, nearly all of whose steps are
// the survivor's forced tail, and a crashy IterativeKK.
func BenchmarkSimulate(b *testing.B) {
	type row struct {
		name string
		cfg  SimConfig
	}
	var rows []row
	for _, tc := range []struct{ lgN, m int }{{14, 8}, {14, 32}, {14, 64}, {20, 8}} {
		rows = append(rows, row{fmt.Sprintf("n=2^%d/m=%d", tc.lgN, tc.m),
			SimConfig{Jobs: 1 << tc.lgN, Workers: tc.m, Scheduler: RandomSched, Seed: 1}})
	}
	rows = append(rows,
		row{"tightness/n=2^17/m=8", SimConfig{Jobs: 1 << 17, Workers: 8, Scheduler: Tightness}},
		row{"iterative/n=2^20/m=8", SimConfig{Jobs: 1 << 20, Workers: 8, Iterative: true,
			Scheduler: RandomSched, Crashes: 7, CrashProb: 1e-5, Seed: 7}})
	for _, tc := range rows {
		b.Run(tc.name, func(b *testing.B) {
			var steps uint64
			for i := 0; i < b.N; i++ {
				rep, err := Simulate(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += rep.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}

// BenchmarkE2Bounds: safety and both effectiveness bounds on random
// crashy schedules.
func BenchmarkE2Bounds(b *testing.B) {
	const n, m = 2000, 4
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{N: n, M: m, F: m - 1})
		if err != nil {
			b.Fatal(err)
		}
		adv := sim.NewRandom(int64(i))
		adv.CrashProb = 0.0005
		rep, err := sys.Run(adv, benchStepLimit)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Duplicates != 0 {
			b.Fatal("AMO violated")
		}
		if rep.Distinct < core.EffectivenessBound(n, m, 0) || rep.Distinct > n {
			b.Fatalf("Do = %d out of bounds", rep.Distinct)
		}
	}
}

// BenchmarkE3Work: Theorem 5.6 — work of KK_{3m²}; the reported metric is
// the normalized constant work/(n·m·lgn·lgm).
func BenchmarkE3Work(b *testing.B) {
	const n, m = 8192, 8
	var norm float64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{N: n, M: m, Beta: 3 * m * m})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
		if err != nil {
			b.Fatal(err)
		}
		norm = float64(rep.Work) / (float64(n) * float64(m) * 13 * 3) // lg(8192)=13, lg(8)=3
	}
	b.ReportMetric(norm, "work-norm")
}

// BenchmarkE4Collisions: Lemma 5.5 — pairwise collision bound under the
// staleness-maximizing staircase schedule.
func BenchmarkE4Collisions(b *testing.B) {
	const n, m = 4096, 8
	var total uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{N: n, M: m, Beta: 3 * m * m, TrackCollisions: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(&adversary.Staircase{}, benchStepLimit); err != nil {
			b.Fatal(err)
		}
		for p := 1; p <= m; p++ {
			for q := 1; q <= m; q++ {
				if p != q && sys.Collisions.Count(p, q) > core.PairBound(n, m, p, q) {
					b.Fatal("Lemma 5.5 violated")
				}
			}
		}
		total = sys.Collisions.Total()
	}
	b.ReportMetric(float64(total), "collisions")
}

// BenchmarkE5Iterative: Theorem 6.4 — IterativeKK(ε=1) loss and work.
func BenchmarkE5Iterative(b *testing.B) {
	const n, m = 8192, 4
	var loss int
	var work uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewIterSystem(core.IterConfig{N: n, M: m, EpsDenom: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Duplicates != 0 {
			b.Fatal("AMO violated")
		}
		loss, work = n-rep.Distinct, rep.Work
	}
	b.ReportMetric(float64(loss), "jobs-lost")
	b.ReportMetric(float64(work)/float64(n), "work-per-job")
}

// BenchmarkE6WriteAll: Theorem 7.1 — WA_IterativeKK completes and its
// per-cell work amortizes.
func BenchmarkE6WriteAll(b *testing.B) {
	const n, m = 8192, 4
	var perCell float64
	for i := 0; i < b.N; i++ {
		rep, err := writeall.RunIterKK(n, m, 1, 0, &sim.RoundRobin{}, benchStepLimit)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Complete() {
			b.Fatal("write-all incomplete")
		}
		perCell = float64(rep.Work) / float64(n)
	}
	b.ReportMetric(perCell, "work-per-cell")
}

// BenchmarkE7Comparison: §1 positioning — worst-case Do of KKβ vs the
// trivial baseline under f = m−1 crash-at-start.
func BenchmarkE7Comparison(b *testing.B) {
	const n, m = 4096, 8
	var kk int
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{N: n, M: m, F: m - 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run(&adversary.Tightness{}, benchStepLimit)
		if err != nil {
			b.Fatal(err)
		}
		kk = rep.Distinct
	}
	b.ReportMetric(float64(kk), "kk-worst-do")
	b.ReportMetric(float64((1)*n/m), "trivial-worst-do") // (m−f)·n/m with f=m−1
}

// BenchmarkE8Crossover: work-optimality frontier — work/n of
// IterativeKK(ε=1) just inside and outside m = (n/lgn)^{1/4}.
func BenchmarkE8Crossover(b *testing.B) {
	const n = 8192
	var inside, outside float64
	for i := 0; i < b.N; i++ {
		for _, m := range []int{2, 16} {
			sys, err := core.NewIterSystem(core.IterConfig{N: n, M: m, EpsDenom: 1})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
			if err != nil {
				b.Fatal(err)
			}
			if m == 2 {
				inside = float64(rep.Work) / float64(n)
			} else {
				outside = float64(rep.Work) / float64(n)
			}
		}
	}
	b.ReportMetric(inside, "work-per-job-inside")
	b.ReportMetric(outside, "work-per-job-outside")
}

// --- ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationBeta sweeps the termination parameter: larger β buys
// less work (earlier termination) at the cost of effectiveness.
func BenchmarkAblationBeta(b *testing.B) {
	const n, m = 4096, 4
	for _, beta := range []int{m, 2 * m, m * m, 3 * m * m} {
		b.Run(betaName(beta, m), func(b *testing.B) {
			var do int
			var work uint64
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(core.Config{N: n, M: m, Beta: beta})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
				if err != nil {
					b.Fatal(err)
				}
				do, work = rep.Distinct, rep.Work
			}
			b.ReportMetric(float64(n-do), "jobs-lost")
			b.ReportMetric(float64(work)/float64(n), "work-per-job")
		})
	}
}

func betaName(beta, m int) string {
	switch beta {
	case m:
		return "beta=m"
	case 2 * m:
		return "beta=2m"
	case m * m:
		return "beta=m2"
	case 3 * m * m:
		return "beta=3m2"
	default:
		return "beta=?"
	}
}

// BenchmarkAblationPosCache quantifies the POS row-pointer optimization
// of gather_done (§3): disabling it re-reads whole done rows every pass.
func BenchmarkAblationPosCache(b *testing.B) {
	const n, m = 1024, 4
	for _, noCache := range []bool{false, true} {
		name := "pos-cache"
		if noCache {
			name = "no-pos-cache"
		}
		b.Run(name, func(b *testing.B) {
			var work uint64
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(core.Config{N: n, M: m, NoPosCache: noCache})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Duplicates != 0 {
					b.Fatal("AMO violated")
				}
				work = rep.Work
			}
			b.ReportMetric(float64(work)/float64(n), "work-per-job")
		})
	}
}

// BenchmarkAblationRankStructure compares three ways to compute
// rank(SET1,SET2,i): the counted bitmap production uses (denseset), the
// order-statistic tree the paper assumes — the data-structure choice
// behind the O(|SET2|·log n) term in Theorem 5.6 — and a linear rescan of
// the set difference.
func BenchmarkAblationRankStructure(b *testing.B) {
	const size = 1 << 15
	s := oset.NewRange(1, size)
	excl := oset.New()
	dense, denseExcl := denseset.NewRange(1, size), denseset.New()
	for i := 1; i <= 16; i++ {
		excl.Insert(i * 1000)
		denseExcl.Insert(i * 1000)
	}
	b.Run("bitmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := dense.SelectExcluding(denseExcl, i%(size/2)+1); !ok {
				b.Fatal("select failed")
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := s.SelectExcluding(excl, i%(size/2)+1); !ok {
				b.Fatal("select failed")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			target := i%(size/2) + 1
			rank, found := 0, false
			s.Ascend(func(v int) bool {
				if !excl.Contains(v) {
					rank++
					if rank == target {
						found = true
						return false
					}
				}
				return true
			})
			if !found {
				b.Fatal("linear select failed")
			}
		}
	})
}

// BenchmarkAblationCascade compares the IterativeKK size cascade against
// running KK_{3m²} directly on raw jobs (the single-level alternative).
func BenchmarkAblationCascade(b *testing.B) {
	const n, m = 32768, 4
	b.Run("cascade", func(b *testing.B) {
		var work uint64
		for i := 0; i < b.N; i++ {
			sys, err := core.NewIterSystem(core.IterConfig{N: n, M: m, EpsDenom: 1})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
			if err != nil {
				b.Fatal(err)
			}
			work = rep.Work
		}
		b.ReportMetric(float64(work)/float64(n), "work-per-job")
	})
	b.Run("single-level", func(b *testing.B) {
		var work uint64
		for i := 0; i < b.N; i++ {
			sys, err := core.NewSystem(core.Config{N: n, M: m, Beta: 3 * m * m})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sys.Run(&sim.RoundRobin{}, benchStepLimit)
			if err != nil {
				b.Fatal(err)
			}
			work = rep.Work
		}
		b.ReportMetric(float64(work)/float64(n), "work-per-job")
	})
}

// BenchmarkAblationShape runs one Do stream through the streaming
// dispatcher at Shards × WorkersPerShard of 1×2, 2×1 and 2×2. A shard's
// workers share its KKβ next/done registers; at 2×1 no shard has a second
// worker to share them with, so the gap in ns/job and work/job (the
// paper's work, Stats().Work / Performed) is what sharing costs on the
// machine it runs on (DESIGN.md §6).
func BenchmarkAblationShape(b *testing.B) {
	for _, shape := range []struct{ shards, workers int }{{1, 2}, {2, 1}, {2, 2}} {
		b.Run(fmt.Sprintf("%dx%d", shape.shards, shape.workers), func(b *testing.B) {
			d, err := NewDispatcher(DispatcherConfig{Shards: shape.shards, WorkersPerShard: shape.workers})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			task := Task{Fn: func(context.Context) error { return nil }}
			ctx := context.Background()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := d.Do(ctx, task); err != nil {
					b.Fatal(err)
				}
			}
			d.Flush()
			elapsed := time.Since(start)
			b.StopTimer()
			st := d.Stats()
			if st.Duplicates != 0 {
				b.Fatal("AMO violated")
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/job")
			b.ReportMetric(float64(st.Work)/float64(st.Performed), "work/job")
		})
	}
}

// BenchmarkConcurrentRun measures Run on real goroutines end to end, in
// ns per job of the batch: a small batch on eight workers, and one at the
// paper's size on two, where the selects walk from their fingers.
func BenchmarkConcurrentRun(b *testing.B) {
	for _, tc := range []struct {
		name string
		n, m int
	}{{"n=4096/m=8", 4096, 8}, {"n=2^17/m=2", 1 << 17, 2}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, err := Run(Config{Jobs: tc.n, Workers: tc.m}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if sum.Duplicates != 0 {
					b.Fatal("AMO violated")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.n), "ns/job")
		})
	}
}

// BenchmarkQuickSuite runs the whole quick experiment suite per iteration;
// useful as a single-number regression canary.
func BenchmarkQuickSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("suite benchmark is slow")
	}
	for i := 0; i < b.N; i++ {
		for _, tab := range (harness.Suite{Quick: true}).All() {
			if !tab.Pass {
				b.Fatalf("%s failed", tab.ID)
			}
		}
	}
}
