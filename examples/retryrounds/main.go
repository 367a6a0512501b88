// Retry rounds: draining the unavoidable remainder.
//
// Theorem 2.1 says NO wait-free at-most-once algorithm can guarantee all
// n jobs complete — up to β+m−2 stay behind (stuck behind announcements
// of crashed or slow workers). The standard operational answer is
// rounds: run, collect Summary.Unperformed, and run a fresh instance on
// just those jobs. Each round preserves at-most-once (fresh shared
// memory, disjoint job identities via an index mapping), so a job still
// executes at most once ACROSS rounds, and the remainder shrinks
// geometrically — usually to zero in two or three rounds.
//
// Run with: go run ./examples/retryrounds
package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"atmostonce"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "retryrounds:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		jobs     = 2000
		workers  = 8
		maxRound = 5
	)
	executions := make([]atomic.Int32, jobs+1)

	// pending maps round-local ids (1..len) to original job ids.
	pending := make([]int, jobs)
	for i := range pending {
		pending[i] = i + 1
	}

	for round := 1; round <= maxRound && len(pending) > 0; round++ {
		batch := pending
		w := workers
		if len(batch) < w {
			w = len(batch) // a round needs n ≥ m
		}
		sum, err := atmostonce.Run(
			atmostonce.Config{Jobs: len(batch), Workers: w},
			func(worker, local int) {
				executions[batch[local-1]].Add(1)
			},
		)
		if err != nil {
			return err
		}
		fmt.Printf("round %d: %4d jobs in, %4d done, %3d left\n",
			round, len(batch), sum.Performed, sum.Remaining)

		next := make([]int, 0, len(sum.Unperformed))
		for _, local := range sum.Unperformed {
			next = append(next, batch[local-1])
		}
		pending = next
	}

	doubles, missed := 0, len(pending)
	for j := 1; j <= jobs; j++ {
		if executions[j].Load() > 1 {
			doubles++
		}
	}
	fmt.Printf("after all rounds: %d unperformed, %d double executions\n", missed, doubles)
	if doubles > 0 {
		return fmt.Errorf("at-most-once violated across rounds")
	}
	if missed > 0 {
		fmt.Println("note: a remainder can persist only if every round hits its worst case")
	}
	return nil
}
