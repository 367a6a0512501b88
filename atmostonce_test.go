package atmostonce

import (
	"errors"
	"math"
	"reflect"
	"runtime"
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
			Seed:       2,
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
	for _, c := range []struct {
		crash []uint64
		want  string
	}{
		{[]uint64{1}, "conc: invalid options: CrashAfter has 1 entries for m=2"},
		{[]uint64{1, 1}, "conc: invalid options: all processes crash (need f < m)"},
	} {
		sum, err := Run(Config{Jobs: 10, Workers: 2, CrashAfter: c.crash}, nil)
		if err == nil || err.Error() != c.want {
			t.Fatalf("CrashAfter %v: got (%v, %v), want error %q", c.crash, sum, err, c.want)
		}
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
	if rep.EffectivenessLB != 0 {
		t.Fatalf("EffectivenessLB = %d, want 0: Theorem 4.4 bounds plain KKβ", rep.EffectivenessLB)
	}
}

// paperIterative is the IterativeKK simulation the benchmark's paper_batch
// workload runs (bench/wl_paper.go), at n jobs.
func paperIterative(n int) SimConfig {
	return SimConfig{Jobs: n, Workers: 8, Iterative: true, Scheduler: RandomSched,
		Crashes: 7, CrashProb: 1e-5, Seed: 7}
}

// TestSimulateGoldenExecutions pins three full executions, count for
// count. Work is charged in the paper's model and the adversaries are
// deterministic, so a change to the set structure, the scheduler's
// bookkeeping or the tallies must reproduce these numbers exactly. The
// first two were read from the red-black-tree implementation this
// repository started with; the third, whose random adversary draws from
// the live set at m = 64 while 63 crashes shrink it, from the engine that
// rescanned every process at every step.
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
		{"KK under random crashes at m = 64", SimConfig{Jobs: 1 << 12, Workers: 64, Scheduler: RandomSched,
			Crashes: 63, CrashProb: 1e-3, Seed: 3},
			SimReport{Performed: 3_970, Work: 10_887_833, Steps: 542_207, Crashes: 63}},
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

// TestSimulateIterativeAllocs bounds what a simulation allocates, within
// 10 % of the 91 it takes: levels, one allocation per set and per register
// page written, the do marks, nothing per level change, step or job. The
// figure is the least of three calls, so that an allocation elsewhere in
// the process cannot fail the test; under the race detector, which
// allocates too, the bound is 5 000.
func TestSimulateIterativeAllocs(t *testing.T) {
	allocs := math.Inf(1)
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			if _, err := Simulate(paperIterative(1 << 16)); err != nil {
				t.Fatal(err)
			}
		}))
	}
	bound := 100.0
	if raceEnabled {
		bound = 5000
	}
	if allocs > bound {
		t.Fatalf("Simulate allocates %v times per call, want ≤ %v", allocs, bound)
	}
	t.Logf("%v allocations per call", allocs)
}

// TestSimulateIterativeBytes bounds the bytes of paper_batch's IterativeKK
// simulation at 2^20 jobs: its sets and do marks, and the register pages
// it writes of its 2^23 registers.
func TestSimulateIterativeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("a large simulation in -short mode")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Simulate(paperIterative(1 << 20)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 12_000_000 {
		t.Fatalf("Simulate(paperIterative(2^20)) allocates %d bytes, want ≤ 12 MB", got)
	}
}

// TestOneShotAllocs bounds the bytes and the allocations of one
// WriteAll(2^16, 2) and one Run(2^16, 2), within 10 % of what they take:
// the register file, the algorithm's sets and one do bitmap a worker,
// nothing per do event. An O(events) buffer — a do-event log, a stamp per
// job — would be megabytes here. Each figure is the least of five calls
// after a warm-up, so that an allocation elsewhere in the process cannot
// fail the test; under the race detector, which allocates too, the
// bounds are twice as loose.
func TestOneShotAllocs(t *testing.T) {
	const n, m = 1 << 16, 2
	for _, tc := range []struct {
		name          string
		call          func() error
		bytes, allocs uint64
	}{
		{"WriteAll", func() error { _, err := WriteAll(n, m, nil); return err }, 1_388_000, 35},
		{"Run", func() error { _, err := Run(Config{Jobs: n, Workers: m}, nil); return err }, 1_258_000, 30},
	} {
		bytes, allocs := ^uint64(0), ^uint64(0)
		for i := 0; i < 6; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
				allocs = min(allocs, after.Mallocs-before.Mallocs)
			}
		}
		if raceEnabled {
			tc.bytes, tc.allocs = 2*tc.bytes, 2*tc.allocs
		}
		if bytes > tc.bytes || allocs > tc.allocs {
			t.Errorf("%s(2^16, 2) allocates %d bytes in %d allocations, want ≤ %d in ≤ %d",
				tc.name, bytes, allocs, tc.bytes, tc.allocs)
		}
		t.Logf("%s(2^16, 2): %d bytes, %d allocations", tc.name, bytes, allocs)
	}
}

// TestDefaultMaxSteps: the default step limit follows the configuration,
// checked without running a simulation that long.
func TestDefaultMaxSteps(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		want uint64
	}{
		{1 << 17, 8, 500_000_000},    // 16·n·m = 16.8 M
		{1 << 22, 8, 536_870_912},    // just past 500 M
		{1 << 22, 64, 4_294_967_296}, // KK at m = 64 takes ≈ 820 M here
		{1 << 24, 1 << 10, 1 << 38},  // 16·n·m
	} {
		if got := defaultMaxSteps(tc.n, tc.m); got != tc.want {
			t.Errorf("defaultMaxSteps(%d, %d) = %d, want %d", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestSimulateIncompatible(t *testing.T) {
	for _, cfg := range []SimConfig{
		{Jobs: 100, Workers: 4, Iterative: true, Scheduler: Tightness},
		{Jobs: 100, Workers: 4, Iterative: true, TrackCollisions: true},
		{Jobs: 100, Workers: 4, Scheduler: Scheduler(42)},
	} {
		if _, err := Simulate(cfg); !errors.Is(err, ErrIncompatible) {
			t.Errorf("%+v: err = %v, want ErrIncompatible", cfg, err)
		}
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
