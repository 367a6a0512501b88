package conc

import (
	"sync/atomic"
	"testing"

	"atmostonce/internal/core"
	"atmostonce/internal/sim"
)

func TestRunKKConcurrentAMO(t *testing.T) {
	for run := 0; run < 5; run++ {
		res, err := Run(Options{N: 2000, M: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Duplicates != 0 {
			t.Fatalf("run %d: at-most-once violated under real concurrency (%d dups)", run, res.Duplicates)
		}
		if lower := core.EffectivenessBound(2000, 8, 0); res.Distinct < lower {
			t.Fatalf("run %d: Do = %d < %d", run, res.Distinct, lower)
		}
		if res.Distinct > 2000 {
			t.Fatalf("run %d: Do = %d > n", run, res.Distinct)
		}
	}
}

func TestRunKKWithCrashes(t *testing.T) {
	// Processes 1..3 stop after a few hundred actions; 4 survives.
	crash := []uint64{200, 350, 500, 0}
	res, err := Run(Options{N: 1000, M: 4, Adversary: &sim.StepBudget{Steps: crash, Then: sim.NewRandom(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 0 {
		t.Fatalf("AMO violated with crashes (%d dups)", res.Duplicates)
	}
	if res.Crashed != 3 {
		t.Fatalf("crashed = %d, want 3", res.Crashed)
	}
	if lower := core.EffectivenessBound(1000, 4, 0); res.Distinct < lower {
		t.Fatalf("Do = %d < %d", res.Distinct, lower)
	}
}

func TestRunPayloadExecutedAtMostOnce(t *testing.T) {
	const n = 1500
	counters := make([]atomic.Int32, n+1)
	res, err := Run(Options{
		N: n, M: 6,
		DoFn: func(pid int, job int64) { counters[job].Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for j := 1; j <= n; j++ {
		switch counters[j].Load() {
		case 0:
		case 1:
			executed++
		default:
			t.Fatalf("job %d payload ran %d times", j, counters[j].Load())
		}
	}
	if executed != res.Distinct {
		t.Fatalf("payload executions %d != distinct %d", executed, res.Distinct)
	}
}

func TestRunIterativeConcurrent(t *testing.T) {
	res, err := Run(Options{N: 3000, M: 4, Iterative: true, EpsDenom: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 0 {
		t.Fatalf("iterative AMO violated (%d dups)", res.Duplicates)
	}
	if res.Distinct == 0 || res.Distinct > 3000 {
		t.Fatalf("Distinct = %d out of range", res.Distinct)
	}
}

func TestRunWriteAllConcurrent(t *testing.T) {
	const n = 2000
	var written [n + 1]atomic.Bool
	res, err := Run(Options{
		N: n, M: 4, WriteAll: true,
		DoFn: func(pid int, job int64) { written[job].Store(true) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= n; j++ {
		if !written[j].Load() {
			t.Fatalf("cell %d never written", j)
		}
	}
	if res.Distinct != n {
		t.Fatalf("Distinct = %d, want n", res.Distinct)
	}
}

func TestRunWriteAllWithCrashes(t *testing.T) {
	const n = 1200
	crash := []uint64{150, 0, 300, 0}
	res, err := Run(Options{N: n, M: 4, WriteAll: true, Adversary: &sim.StepBudget{Steps: crash, Then: sim.NewRandom(13)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != n {
		t.Fatalf("coverage %d of %d after crashes", res.Distinct, n)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{N: 2, M: 4}); err == nil {
		t.Error("n<m accepted")
	}
}
