package atmostonce_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"atmostonce"
)

// ExampleRun executes jobs on real goroutines with at-most-once
// semantics. The exact number performed varies with scheduling, but the
// invariants do not: zero duplicates, and every job is either performed
// or reported back.
func ExampleRun() {
	sum, err := atmostonce.Run(
		atmostonce.Config{Jobs: 500, Workers: 4},
		func(worker, job int) { /* the at-most-once payload */ },
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("duplicates:", sum.Duplicates)
	fmt.Println("accounted:", sum.Performed+sum.Remaining == 500)
	fmt.Println("within guarantee:", sum.Remaining <= 2*4-2)
	// Output:
	// duplicates: 0
	// accounted: true
	// within guarantee: true
}

// ExampleDispatcher_Do shows the submission API's two ctx-shaped
// behaviors: a submission context that expires while the submitter is
// parked on a full queue releases it WITHOUT consuming a job id, and a
// Task whose deadline passes before its round is assembled is never
// started — it resolves exactly once with Expired set.
func ExampleDispatcher_Do() {
	d, err := atmostonce.NewDispatcher(atmostonce.DispatcherConfig{
		Shards:          1,
		WorkersPerShard: 2,
		QueueDepth:      2, // tiny bounded queue, easy to fill
		SubmitPolicy:    atmostonce.Block,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer d.Close()
	bg := context.Background()

	// Fill the shard: two gated jobs occupy the whole bounded queue.
	gate := make(chan struct{})
	blocked := atmostonce.Task{Fn: func(context.Context) error { <-gate; return nil }}
	if _, err := d.Do(bg, blocked); err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := d.Do(bg, blocked); err != nil {
		fmt.Println("error:", err)
		return
	}

	// Cancellation: admission into the full queue parks the submitter;
	// the expiring ctx releases it, job id unconsumed.
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	_, err = d.Do(ctx, atmostonce.Task{Fn: func(context.Context) error { return nil }})
	fmt.Println("admission cancelled:", errors.Is(err, context.DeadlineExceeded))
	close(gate)

	// Deadline miss: a deadline already in the past expires at round
	// assembly — the payload below never runs.
	h, err := d.Do(bg, atmostonce.Task{
		Fn:       func(context.Context) error { fmt.Println("never printed"); return nil },
		Deadline: time.Now().Add(-time.Millisecond),
		Priority: atmostonce.Low,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r := <-h.Done()
	fmt.Println("expired:", r.Expired, "err:", r.Err)
	// Output:
	// admission cancelled: true
	// expired: true err: context deadline exceeded
}

// ExampleWriteAll guarantees completion instead (duplicates allowed —
// note the payload must tolerate concurrent duplicate invocations, hence
// the atomic stores).
func ExampleWriteAll() {
	cells := make([]atomic.Bool, 257)
	_, err := atmostonce.WriteAll(256, 4, func(worker, cell int) {
		cells[cell].Store(true)
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	missing := 0
	for c := 1; c <= 256; c++ {
		if !cells[c].Load() {
			missing++
		}
	}
	fmt.Println("missing:", missing)
	// Output:
	// missing: 0
}

// ExampleSimulate reproduces Theorem 4.4 in one call: under the paper's
// worst-case adversary, KKβ performs exactly n−(β+m−2) jobs.
func ExampleSimulate() {
	rep, err := atmostonce.Simulate(atmostonce.SimConfig{
		Jobs: 1000, Workers: 5, Scheduler: atmostonce.Tightness,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("performed:", rep.Performed)
	fmt.Println("bound n-(2m-2):", rep.EffectivenessLB)
	fmt.Println("duplicates:", rep.Duplicates)
	// Output:
	// performed: 992
	// bound n-(2m-2): 992
	// duplicates: 0
}
