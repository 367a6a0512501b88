// Command amo-sim runs a single adversarial simulation of KKβ or
// IterativeKK(ε) and prints the measured effectiveness, work and safety
// outcome.
//
// Usage:
//
//	amo-sim -n 4096 -m 8 [-beta 8] [-adversary tightness] [-f 7]
//	amo-sim -n 65536 -m 8 -iterative -eps-denom 2 -adversary random -seed 3
package main

import (
	"flag"
	"fmt"
	"os"

	"atmostonce"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "amo-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("amo-sim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 1024, "number of jobs")
		m         = fs.Int("m", 4, "number of processes")
		beta      = fs.Int("beta", 0, "termination parameter β (0 = m)")
		f         = fs.Int("f", 0, "crash budget (f < m)")
		advName   = fs.String("adversary", "roundrobin", "roundrobin|random|tightness|staircase|alternator")
		seed      = fs.Int64("seed", 0, "seed of -adversary random (the simulator only: -conc runs free)")
		crashProb = fs.Float64("crash-prob", 0.001, "random adversary crash probability")
		iterative = fs.Bool("iterative", false, "run IterativeKK(ε) instead of plain KKβ")
		epsDenom  = fs.Int("eps-denom", 1, "1/ε for the iterative algorithm")
		coll      = fs.Bool("collisions", false, "track Definition 5.2 collisions (plain KKβ)")
		concRun   = fs.Bool("conc", false, "run on real goroutines over sync/atomic registers instead of the simulator")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concRun {
		return runConc(*n, *m, *beta, *iterative, *epsDenom)
	}
	scheds := map[string]atmostonce.Scheduler{
		"roundrobin": atmostonce.RoundRobin,
		"random":     atmostonce.RandomSched,
		"tightness":  atmostonce.Tightness,
		"staircase":  atmostonce.Staircase,
		"alternator": atmostonce.Alternator,
	}
	sched, ok := scheds[*advName]
	if !ok {
		return fmt.Errorf("unknown adversary %q", *advName)
	}
	rep, err := atmostonce.Simulate(atmostonce.SimConfig{
		Jobs: *n, Workers: *m, Beta: *beta,
		Iterative: *iterative, EpsDenom: *epsDenom,
		Scheduler: sched, Crashes: *f, CrashProb: *crashProb, Seed: *seed,
		TrackCollisions: *coll,
	})
	if err != nil {
		return err
	}
	fmt.Printf("jobs performed (Do)   %d / %d\n", rep.Performed, *n)
	fmt.Printf("duplicates            %d (at-most-once %s)\n", rep.Duplicates, okStr(rep.Duplicates == 0))
	if !*iterative {
		fmt.Printf("effectiveness bound   %d (Theorem 4.4: n−(β+m−2))\n", rep.EffectivenessLB)
	}
	fmt.Printf("work                  %d\n", rep.Work)
	fmt.Printf("scheduler actions     %d\n", rep.Steps)
	fmt.Printf("crashes injected      %d\n", rep.Crashes)
	if rep.Collisions != nil {
		var total uint64
		for _, row := range rep.Collisions {
			for _, c := range row {
				total += c
			}
		}
		fmt.Printf("collisions            %d\n", total)
	}
	if rep.Duplicates != 0 {
		return fmt.Errorf("at-most-once violated")
	}
	return nil
}

func runConc(n, m, beta int, iterative bool, epsDenom int) error {
	sum, err := atmostonce.Run(atmostonce.Config{
		Jobs: n, Workers: m, Beta: beta,
		Iterative: iterative, EpsDenom: epsDenom,
	}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("mode                  concurrent (goroutines over sync/atomic)\n")
	fmt.Printf("jobs performed (Do)   %d / %d\n", sum.Performed, n)
	fmt.Printf("jobs remaining        %d\n", sum.Remaining)
	fmt.Printf("duplicates            %d (at-most-once %s)\n", sum.Duplicates, okStr(sum.Duplicates == 0))
	if sum.Duplicates != 0 {
		return fmt.Errorf("at-most-once violated")
	}
	return nil
}

func okStr(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}
