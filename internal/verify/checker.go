// Package verify provides correctness oracles for at-most-once executions:
// a trace checker for the at-most-once property (Definition 2.2) and a
// bounded exhaustive model checker that explores every interleaving and
// crash pattern of small KKβ configurations, machine-checking Lemma 4.1
// (safety), Lemma 4.3 (wait-freedom) and Theorem 4.4's effectiveness lower
// bound on the full execution tree.
package verify

import (
	"fmt"
	"sort"

	"atmostonce/internal/sim"
)

// TraceReport is the outcome of checking one execution trace.
type TraceReport struct {
	// Distinct is Do(α), the number of distinct jobs performed.
	Distinct int
	// Violations lists jobs performed more than once, with counts.
	Violations []Violation
}

// Violation is one at-most-once breach.
type Violation struct {
	Job   int64
	Count int
	PIDs  []int
}

// OK reports whether the trace satisfies at-most-once semantics.
func (r *TraceReport) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the trace is safe, or an error naming the first
// violated job.
func (r *TraceReport) Err() error {
	if r.OK() {
		return nil
	}
	v := r.Violations[0]
	return fmt.Errorf("verify: job %d performed %d times by %v", v.Job, v.Count, v.PIDs)
}

// CheckEvents verifies Definition 2.2 over a do-event trace: every job is
// performed at most once across all processes.
func CheckEvents(events []sim.Event) *TraceReport {
	count := make(map[int64]int, len(events))
	pids := make(map[int64][]int)
	for _, e := range events {
		count[e.Job]++
		pids[e.Job] = append(pids[e.Job], e.PID)
	}
	rep := &TraceReport{Distinct: len(count)}
	for job, c := range count {
		if c > 1 {
			rep.Violations = append(rep.Violations, Violation{Job: job, Count: c, PIDs: pids[job]})
		}
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		return rep.Violations[i].Job < rep.Violations[j].Job
	})
	return rep
}
