// Backpressure: what a saturated dispatcher does to its producers.
//
// A producer that submits faster than the workers can perform has to put
// the overflow SOMEWHERE. Before bounded queues, the dispatcher's rings
// simply grew — a submission spike became resident memory until the
// backlog drained. With DispatcherConfig.QueueDepth the overflow stops at
// the queue bound and SubmitPolicy picks who pays:
//
//   - Block (default): the submit call parks until a round frees space.
//     The producer is throttled to the consumption rate, memory stays
//     flat, and Stats.SubmitBlockedNanos shows the price.
//   - FailFast: the submit call returns ErrQueueFull immediately — no
//     job id is consumed — and the producer decides: retry, shed, or
//     divert. Load shedding becomes an explicit, observable event.
//
// This example overdrives both policies with deliberately slow payloads
// and a tiny queue, then proves the invariants: every accepted job ran
// exactly once, queues never exceeded their bound, and the callback of
// every accepted submission fired.
//
// Run with: go run ./examples/backpressure
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"atmostonce"
)

const (
	queueDepth = 32
	jobs       = 2000
	payload    = 20 * time.Microsecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "backpressure:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := blockPolicy(); err != nil {
		return err
	}
	return failFastPolicy()
}

// newDispatcher builds the overdriven shape shared by both phases.
func newDispatcher(policy atmostonce.SubmitPolicy) (*atmostonce.Dispatcher, error) {
	return atmostonce.NewDispatcher(atmostonce.DispatcherConfig{
		Shards:          2,
		WorkersPerShard: 2,
		MaxBatch:        16,
		QueueDepth:      queueDepth,
		SubmitPolicy:    policy,
	})
}

// blockPolicy: the producer runs flat out; the bounded queue throttles it.
func blockPolicy() error {
	d, err := newDispatcher(atmostonce.Block)
	if err != nil {
		return err
	}
	defer d.Close()

	var done, maxDepth atomic.Int64
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if _, err := d.Do(context.Background(), atmostonce.Task{
			Fn:       func(context.Context) error { time.Sleep(payload); return nil },
			Callback: func(atmostonce.JobResult) { done.Add(1) },
		}); err != nil {
			return err
		}
		if i%64 == 0 {
			for _, sh := range d.Stats().Shards {
				if int64(sh.QueueDepth) > maxDepth.Load() {
					maxDepth.Store(int64(sh.QueueDepth))
				}
			}
		}
	}
	submitted := time.Since(start)
	d.Flush()
	st := d.Stats()

	fmt.Printf("Block policy: %d jobs through depth-%d queues\n", jobs, queueDepth)
	fmt.Printf("  submit loop took %v (throttled to consumption; %.1fms spent blocked)\n",
		submitted.Round(time.Millisecond), float64(st.SubmitBlockedNanos)/1e6)
	fmt.Printf("  deepest queue observed: %d (bound %d); rounds %d, stolen %d\n",
		maxDepth.Load(), queueDepth, st.Rounds, st.StolenJobs)

	if st.SubmitBlockedNanos == 0 {
		return errors.New("Block: producer was never throttled — overdrive failed")
	}
	if maxDepth.Load() > queueDepth {
		return fmt.Errorf("Block: queue depth %d exceeded bound %d", maxDepth.Load(), queueDepth)
	}
	if got := done.Load(); got != jobs {
		return fmt.Errorf("Block: %d of %d callbacks fired", got, jobs)
	}
	if st.Duplicates != 0 {
		return fmt.Errorf("Block: %d duplicates", st.Duplicates)
	}
	return nil
}

// failFastPolicy: the producer keeps its pace and sheds load instead,
// retrying rejected jobs until everything is eventually accepted.
func failFastPolicy() error {
	d, err := newDispatcher(atmostonce.FailFast)
	if err != nil {
		return err
	}
	defer d.Close()

	var done atomic.Int64
	rejected, accepted := 0, 0
	for accepted < jobs {
		_, err := d.Do(context.Background(), atmostonce.Task{
			Fn:       func(context.Context) error { time.Sleep(payload); return nil },
			Callback: func(atmostonce.JobResult) { done.Add(1) },
		})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, atmostonce.ErrQueueFull):
			rejected++
			time.Sleep(50 * time.Microsecond) // shed: back off and retry
		default:
			return err
		}
	}
	d.Flush()
	st := d.Stats()

	fmt.Printf("FailFast policy: %d accepted, %d rejected with ErrQueueFull (retried)\n",
		accepted, rejected)
	fmt.Printf("  ids stayed dense across rejections: submitted=%d performed=%d, duplicates %d\n",
		st.Submitted, st.Performed, st.Duplicates)

	if rejected == 0 {
		return errors.New("FailFast: queue never rejected — overdrive failed")
	}
	if st.Submitted != uint64(jobs) || st.Performed != uint64(jobs) {
		return fmt.Errorf("FailFast: submitted %d performed %d, want %d (rejections must consume nothing)",
			st.Submitted, st.Performed, jobs)
	}
	if got := done.Load(); got != jobs {
		return fmt.Errorf("FailFast: %d of %d callbacks fired", got, jobs)
	}
	if st.Duplicates != 0 {
		return fmt.Errorf("FailFast: %d duplicates", st.Duplicates)
	}
	return nil
}
