package atmostonce

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestRunBasic(t *testing.T) {
	const n, m = 500, 4
	var count atomic.Int64
	sum, err := Run(Config{Jobs: n, Workers: m}, func(worker, job int) {
		if worker < 1 || worker > m || job < 1 || job > n {
			t.Errorf("bad ids worker=%d job=%d", worker, job)
		}
		count.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Duplicates != 0 {
		t.Fatalf("duplicates = %d", sum.Duplicates)
	}
	if int(count.Load()) != sum.Performed {
		t.Fatalf("payload ran %d times, Performed = %d", count.Load(), sum.Performed)
	}
	if sum.Performed < EffectivenessLowerBound(n, m, 0) {
		t.Fatalf("Performed = %d below guarantee %d", sum.Performed, EffectivenessLowerBound(n, m, 0))
	}
	if sum.Performed+sum.Remaining != n {
		t.Fatalf("Performed+Remaining = %d, want n", sum.Performed+sum.Remaining)
	}
}

func TestRunUnperformedPartition(t *testing.T) {
	// Performed payload jobs and Summary.Unperformed must partition [1..n],
	// including under crash injection — for KKβ, whose list comes from the
	// round pool, and for IterativeKK, whose list comes from the event tally.
	const n, m = 400, 4
	for _, iterative := range []bool{false, true} {
		var ran [n + 1]atomic.Bool
		sum, err := Run(Config{
			Jobs: n, Workers: m, Iterative: iterative,
			CrashAfter: []uint64{100, 0, 250, 0},
			Jitter:     true, Seed: 2,
		}, func(worker, job int) {
			ran[job].Store(true)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Unperformed) != sum.Remaining {
			t.Fatalf("iterative=%v: len(Unperformed) = %d, Remaining = %d", iterative, len(sum.Unperformed), sum.Remaining)
		}
		left := make(map[int]bool, len(sum.Unperformed))
		prev := 0
		for _, j := range sum.Unperformed {
			if j <= prev {
				t.Fatalf("iterative=%v: Unperformed not ascending: %v", iterative, sum.Unperformed)
			}
			prev = j
			left[j] = true
		}
		for j := 1; j <= n; j++ {
			if ran[j].Load() == left[j] {
				t.Fatalf("iterative=%v: job %d: ran=%v unperformed=%v (must be exactly one)", iterative, j, ran[j].Load(), left[j])
			}
		}
	}
}

func TestRunNilPayload(t *testing.T) {
	sum, err := Run(Config{Jobs: 100, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Performed == 0 {
		t.Fatal("nothing performed")
	}
}

func TestRunIterative(t *testing.T) {
	sum, err := Run(Config{Jobs: 4000, Workers: 4, Iterative: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Duplicates != 0 {
		t.Fatalf("duplicates = %d", sum.Duplicates)
	}
}

func TestRunInvalid(t *testing.T) {
	if _, err := Run(Config{Jobs: 1, Workers: 4}, nil); err == nil {
		t.Fatal("n<m accepted")
	}
}

func TestWriteAllCoversEverything(t *testing.T) {
	const n = 1000
	var cells [n + 1]atomic.Int32
	redundant, err := WriteAll(n, 4, func(worker, cell int) {
		cells[cell].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 1; c <= n; c++ {
		if cells[c].Load() == 0 {
			t.Fatalf("cell %d never written", c)
		}
		total += int(cells[c].Load())
	}
	if total-n != redundant {
		t.Fatalf("redundant = %d, counted %d", redundant, total-n)
	}
}

func TestSimulateRoundRobin(t *testing.T) {
	rep, err := Simulate(SimConfig{Jobs: 200, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated")
	}
	if rep.Performed < rep.EffectivenessLB {
		t.Fatalf("Performed %d < lower bound %d", rep.Performed, rep.EffectivenessLB)
	}
	if rep.Work == 0 || rep.Steps == 0 {
		t.Fatal("metrics missing")
	}
}

func TestSimulateTightnessExact(t *testing.T) {
	rep, err := Simulate(SimConfig{Jobs: 300, Workers: 6, Scheduler: Tightness})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Performed != rep.EffectivenessLB {
		t.Fatalf("tightness run performed %d, want exactly %d", rep.Performed, rep.EffectivenessLB)
	}
	if rep.Crashes != 5 {
		t.Fatalf("crashes = %d, want m-1", rep.Crashes)
	}
}

func TestSimulateCollisions(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Jobs: 150, Workers: 3, Beta: 27, Scheduler: Staircase, TrackCollisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collisions == nil || len(rep.Collisions) != 3 {
		t.Fatal("collision matrix missing")
	}
	for p := range rep.Collisions {
		if rep.Collisions[p][p] != 0 {
			t.Fatalf("self collision at %d", p+1)
		}
	}
}

func TestSimulateIterative(t *testing.T) {
	rep, err := Simulate(SimConfig{Jobs: 1000, Workers: 3, Iterative: true, Scheduler: RandomSched, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 {
		t.Fatal("AMO violated")
	}
}

// paperIterative is the IterativeKK simulation the benchmark's paper_batch
// workload runs (bench/wl_paper.go), at n jobs.
func paperIterative(n int) SimConfig {
	return SimConfig{Jobs: n, Workers: 8, Iterative: true, Scheduler: RandomSched,
		Crashes: 7, CrashProb: 1e-5, Seed: 7}
}

// TestSimulateGoldenExecutions pins two full executions, count for count.
// Work is charged in the paper's model and the adversaries are
// deterministic, so a change to the set structure, the scheduler's
// bookkeeping or the tallies must reproduce these numbers exactly; they
// were read from the red-black-tree implementation this repository
// started with.
func TestSimulateGoldenExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("two large simulations in -short mode")
	}
	for _, tc := range []struct {
		name string
		cfg  SimConfig
		want SimReport
	}{
		{"IterativeKK under random crashes", paperIterative(1 << 20),
			SimReport{Performed: 1_046_493, Work: 34_145_292, Steps: 1_199_434, Crashes: 7}},
		{"KK under the Tightness adversary", SimConfig{Jobs: 1 << 17, Workers: 8, Scheduler: Tightness},
			SimReport{Performed: 131_058, Work: 66_315_506, Steps: 2_752_233, Crashes: 7}},
	} {
		rep, err := Simulate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := SimReport{Performed: rep.Performed, Duplicates: rep.Duplicates,
			Work: rep.Work, Steps: rep.Steps, Crashes: rep.Crashes}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestSimulateIterativeAllocs bounds what a simulation allocates: levels,
// sets and event log, not something per step or per job (the tree sets
// and the scheduler's per-step live list made it 3 072 735).
func TestSimulateIterativeAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Simulate(paperIterative(1 << 16)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5000 {
		t.Fatalf("Simulate allocates %v times per call, want ≤ 5000", allocs)
	}
	t.Logf("%v allocations per call", allocs)
}

func TestSimulateIncompatible(t *testing.T) {
	_, err := Simulate(SimConfig{Jobs: 100, Workers: 4, Iterative: true, Scheduler: Tightness})
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("err = %v, want ErrIncompatible", err)
	}
	_, err = Simulate(SimConfig{Jobs: 100, Workers: 4, Scheduler: Scheduler(42)})
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("err = %v, want ErrIncompatible", err)
	}
}

func TestBoundHelpers(t *testing.T) {
	if EffectivenessLowerBound(100, 4, 0) != 94 {
		t.Error("lower bound wrong")
	}
	if EffectivenessUpperBound(100, 3) != 97 {
		t.Error("upper bound wrong")
	}
}
