// Quickstart: perform 1000 jobs with at-most-once semantics, twice —
// first through the paper's one-shot Run API, then through the
// streaming Dispatcher with the observability layer switched on.
//
// The library guarantees (Lemma 4.1) that no job runs twice, and
// (Theorem 4.4) that at most β+m−2 = 2m−2 jobs are left unperformed even
// under worst-case scheduling — here, with a healthy scheduler, the
// remainder is usually far smaller.
//
// The dispatcher half doubles as the observability quickstart: with
// AMO_METRICS_ADDR set it serves the ops endpoint (/metrics in
// Prometheus text format, /healthz, /statsz, /tracez, /debug/pprof/)
// and with AMO_METRICS_HOLD it stays alive that long so an external
// scraper can pull a live exposition.
//
// Run with:
//
//	go run ./examples/quickstart
//	AMO_METRICS_ADDR=127.0.0.1:9091 AMO_METRICS_HOLD=30s go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"atmostonce"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		jobs    = 1000
		workers = 8
	)
	var executions [jobs + 1]atomic.Int32

	summary, err := atmostonce.Run(
		atmostonce.Config{Jobs: jobs, Workers: workers},
		func(worker, job int) {
			// This closure is the "job". The library promises it runs at
			// most once per job id, across all workers, without locks.
			executions[job].Add(1)
		},
	)
	if err != nil {
		return err
	}

	doubles := 0
	for j := 1; j <= jobs; j++ {
		if executions[j].Load() > 1 {
			doubles++
		}
	}
	fmt.Printf("jobs performed:  %d / %d\n", summary.Performed, jobs)
	fmt.Printf("jobs remaining:  %d (≤ 2m−2 = %d guaranteed worst case)\n",
		summary.Remaining, 2*workers-2)
	fmt.Printf("double runs:     %d (always 0)\n", doubles)
	if doubles > 0 || summary.Duplicates > 0 {
		return fmt.Errorf("at-most-once violated")
	}

	// The same workload through the streaming Dispatcher, with the
	// observability layer on: the registry collects per-shard counters
	// and latency/round histograms, and AMO_METRICS_ADDR additionally
	// serves them over HTTP.
	d, err := atmostonce.NewDispatcher(atmostonce.DispatcherConfig{
		Shards:          2,
		WorkersPerShard: 4,
		Metrics:         true,
		MetricsAddr:     os.Getenv("AMO_METRICS_ADDR"),
		TraceSampleRate: 0.1,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	var performed atomic.Int64
	for i := 0; i < jobs; i++ {
		if _, err := d.Do(context.Background(), atmostonce.Task{
			Fn: func(context.Context) error { performed.Add(1); return nil },
		}); err != nil {
			return err
		}
	}
	d.Flush()
	st := d.Stats()
	fmt.Printf("\nstreaming dispatcher: %d jobs in %d rounds, %d duplicates\n",
		st.Performed, st.Rounds, st.Duplicates)
	if qs, ok := d.LatencyQuantiles(0.5, 0.99); ok {
		fmt.Printf("submit→done latency: p50 %s, p99 %s (1-in-16 sampled histogram)\n", qs[0], qs[1])
	}
	if st.Duplicates != 0 || performed.Load() != jobs {
		return fmt.Errorf("dispatcher at-most-once violated: %+v", st)
	}

	if addr := d.OpsAddr(); addr != "" {
		fmt.Printf("ops endpoint: http://%s/metrics\n", addr)
		if hold, err := time.ParseDuration(os.Getenv("AMO_METRICS_HOLD")); err == nil && hold > 0 {
			fmt.Printf("holding %s for scrapes...\n", hold)
			time.Sleep(hold)
		}
	}
	return nil
}
