// Streaming dispatcher: continuous at-most-once execution.
//
// Where examples/retryrounds drains ONE fixed batch with hand-rolled
// retry rounds, the Dispatcher makes rounds a service: producers submit
// jobs continuously, the engine batches them into rounds across several
// independent KKβ shards, and whatever a round leaves unperformed (some
// jobs always are — Theorem 2.1) is carried into the shard's next round.
// The at-most-once guarantee holds end to end, even while injected
// crashes keep killing workers: a job is requeued only when no worker
// performed it, so nothing ever runs twice and nothing is lost.
//
// Run with: go run ./examples/stream
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"atmostonce"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stream:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		producers    = 4
		jobsPerChunk = 500
		chunks       = 25 // per producer: 4×25×500 = 50 000 jobs total
		totalJobs    = producers * chunks * jobsPerChunk
	)

	d, err := atmostonce.NewDispatcher(atmostonce.DispatcherConfig{
		Shards:          4,
		WorkersPerShard: 4,
		MaxBatch:        512,
		// Chaos: for the first 10 rounds of every shard, two of its four
		// workers crash mid-round, under a schedule seeded by the shard and
		// the round. Their announced-but-unperformed jobs ride the residue
		// carry-over into the next round.
		CrashPlan: func(shard, round int) []uint64 {
			if round >= 10 {
				return nil
			}
			return []uint64{0, uint64(300 + 20*round), 600, 0}
		},
	})
	if err != nil {
		return err
	}
	defer d.Close()

	// Producers stream batches concurrently; each job bumps its own cell
	// so we can prove exactly-once afterwards.
	executions := make([]atomic.Int32, totalJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < chunks; c++ {
				tasks := make([]atmostonce.Task, jobsPerChunk)
				base := next.Add(jobsPerChunk) - jobsPerChunk
				for i := range tasks {
					idx := base + int64(i)
					tasks[i].Fn = func(context.Context) error { executions[idx].Add(1); return nil }
				}
				if _, err := d.DoBatch(context.Background(), tasks); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	d.Flush() // drain every queue, including carried residue

	doubles, missed := 0, 0
	for i := range executions {
		switch executions[i].Load() {
		case 0:
			missed++
		case 1:
		default:
			doubles++
		}
	}

	st := d.Stats()
	fmt.Printf("streamed %d jobs through %d shards\n", st.Performed, len(st.Shards))
	fmt.Printf("rounds %d, residue carried %d, worker crashes %d, %.0f jobs/sec\n",
		st.Rounds, st.Residue, st.Crashes, st.JobsPerSec)
	for i, sh := range st.Shards {
		fmt.Printf("  shard %d: %4d rounds, %6d performed, last round %d/%d\n",
			i, sh.Rounds, sh.Performed, sh.LastPerformed, sh.LastBatch)
	}
	fmt.Printf("after flush: %d unperformed, %d double executions\n", missed, doubles)

	if doubles > 0 {
		return fmt.Errorf("at-most-once violated: %d double executions", doubles)
	}
	if missed > 0 {
		return fmt.Errorf("carry-over lost %d jobs", missed)
	}
	if st.Crashes == 0 {
		return fmt.Errorf("crash plan injected nothing")
	}
	return nil
}
