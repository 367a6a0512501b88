// Priority and deadlines: the Task API end to end.
//
// Dispatcher.Do takes a Task — a payload plus its scheduling contract —
// and returns a Handle whose Done() future resolves exactly once. This
// example exercises every part of that contract on one dispatcher:
//
//   - Priorities: a deep Low-priority backlog is queued first, then a
//     High-priority burst. Each shard drains High before Normal before
//     Low, so the burst completes while most of the backlog is still
//     pending instead of waiting it out.
//   - Deadlines: a Task whose deadline passes while it waits in the
//     queue is NEVER started — expiry is decided at round-assembly time,
//     so at-most-once is untouched — and resolves exactly once with
//     Expired set and Err = context.DeadlineExceeded.
//   - Payload errors: a payload that returns an error still counts as
//     performed (it ran once); the error travels to the JobResult.
//   - ctx admission: a cancelled submission ctx releases a parked
//     Block-policy submitter without consuming a job id.
//
// Run with: go run ./examples/priority
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"atmostonce"
)

const (
	backlog = 4000
	burst   = 32
	payload = 20 * time.Microsecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "priority:", err)
		os.Exit(1)
	}
}

func run() error {
	d, err := atmostonce.NewDispatcher(atmostonce.DispatcherConfig{
		Shards:          2,
		WorkersPerShard: 2,
		MaxBatch:        64,
		RoundTarget:     2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	ctx := context.Background()

	// Phase 1 — priorities. Queue the Low backlog, then the High burst.
	spin := func(context.Context) error {
		for t0 := time.Now(); time.Since(t0) < payload; {
		}
		return nil
	}
	low := make([]atmostonce.Task, backlog)
	for i := range low {
		low[i] = atmostonce.Task{Fn: spin, Priority: atmostonce.Low}
	}
	if _, err := d.DoBatch(ctx, low); err != nil {
		return err
	}
	var pendingAtBurstDone atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		if _, err := d.Do(ctx, atmostonce.Task{
			Fn:       spin,
			Priority: atmostonce.High,
			Callback: func(atmostonce.JobResult) {
				pendingAtBurstDone.Store(d.Stats().Pending)
				wg.Done()
			},
		}); err != nil {
			return err
		}
	}
	wg.Wait()
	if p := pendingAtBurstDone.Load(); p < backlog/2 {
		return fmt.Errorf("High burst finished with only %d jobs pending — it waited out the Low backlog", p)
	}
	fmt.Printf("high-priority burst of %d done while > %d%% of the low backlog still pends\n",
		burst, 100*pendingAtBurstDone.Load()/(backlog+burst))

	// Phase 2 — a deadline missed in the queue. The backlog is still
	// draining, so a 1ns deadline is long gone when a round next forms.
	h, err := d.Do(ctx, atmostonce.Task{
		Fn:       func(context.Context) error { panic("expired payloads must never run") },
		Deadline: time.Now().Add(time.Nanosecond),
		Priority: atmostonce.Low,
	})
	if err != nil {
		return err
	}
	r := <-h.Done()
	if !r.Expired || !errors.Is(r.Err, context.DeadlineExceeded) {
		return fmt.Errorf("deadline miss resolved as %+v", r)
	}
	fmt.Println("queued past its deadline: resolved Expired, payload never ran")

	// Phase 3 — payload errors ride the JobResult.
	boom := errors.New("payload failed")
	h, err = d.Do(ctx, atmostonce.Task{Fn: func(context.Context) error { return boom }})
	if err != nil {
		return err
	}
	if r := <-h.Done(); !errors.Is(r.Err, boom) {
		return fmt.Errorf("payload error lost: %+v", r)
	}
	fmt.Println("failing payload: performed once, error delivered in the JobResult")

	d.Flush()
	st := d.Stats()
	if st.Duplicates != 0 || st.Pending != 0 {
		return fmt.Errorf("invariants broken: %d duplicates, %d pending", st.Duplicates, st.Pending)
	}
	if st.Expired != 1 {
		return fmt.Errorf("Stats.Expired = %d, want 1", st.Expired)
	}
	fmt.Printf("done: %d jobs, %d expired, 0 duplicates\n", st.Performed, st.Expired)
	return nil
}
