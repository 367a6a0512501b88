// Command amo-verify exhaustively model-checks a small KKβ (or
// IterStepKK) configuration: it explores every interleaving and crash
// pattern, verifying Lemma 4.1 (at-most-once), Lemma 4.3 (no fair
// cycles), Theorem 4.4's effectiveness lower bound and, in -iterstep
// mode, Lemma 6.2 (outputs contain no performed jobs).
//
// Usage:
//
//	amo-verify -n 3 -m 2 -f 1
//	amo-verify -n 2 -m 2 -f 1 -iterstep
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"atmostonce/internal/core"
	"atmostonce/internal/harness"
	"atmostonce/internal/verify"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "amo-verify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("amo-verify", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 3, "number of jobs")
		m         = fs.Int("m", 2, "number of processes")
		beta      = fs.Int("beta", 0, "termination parameter β (0 = m)")
		f         = fs.Int("f", 1, "crash budget")
		iterStep  = fs.Bool("iterstep", false, "check the IterStepKK variant (§6)")
		maxStates = fs.Int("max-states", 0, "state budget of a single run (0 = 4e6); -suite runs E9's configurations at their default")
		suite     = fs.Bool("suite", false, "run the standard verification suite and print a summary table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *suite {
		return runSuite()
	}
	fmt.Printf("exploring KKβ: n=%d m=%d β=%d f=%d iterstep=%v\n", *n, *m, orM(*beta, *m), *f, *iterStep)
	start := time.Now()
	stats, err := verify.ExploreKK(verify.MCConfig{
		N: *n, M: *m, Beta: *beta, F: *f, IterStep: *iterStep, MaxStates: *maxStates,
	})
	elapsed := time.Since(start).Round(time.Millisecond)
	if err != nil {
		var v *verify.MCViolationError
		if errors.As(err, &v) {
			fmt.Printf("VIOLATION (%s): %s\n", v.Kind, v.Detail)
			fmt.Println("witness schedule:")
			for i, d := range v.Witness {
				fmt.Printf("  %3d: %+v\n", i, d)
			}
		}
		return err
	}
	fmt.Printf("states visited        %d\n", stats.States)
	fmt.Printf("terminal states       %d\n", stats.Terminals)
	fmt.Printf("Do(α) range           [%d, %d]\n", stats.MinDo, stats.MaxDo)
	if !*iterStep {
		fmt.Printf("effectiveness bound   %d (every terminal must reach it)\n",
			core.EffectivenessBound(*n, *m, *beta))
	}
	fmt.Printf("cycles (all unfair)   %d\n", stats.Cycles)
	fmt.Printf("elapsed               %s\n", elapsed)
	fmt.Println("all properties verified on the full execution tree")
	return nil
}

func orM(beta, m int) int {
	if beta == 0 {
		return m
	}
	return beta
}

// runSuite prints harness E9's table, the battery EXPERIMENTS.md embeds,
// and fails when any configuration contradicts its claim.
func runSuite() error {
	t := harness.Suite{}.E9Verification()
	fmt.Print(t.Markdown())
	if !t.Pass {
		return errors.New("the verification suite found a violation")
	}
	return nil
}
