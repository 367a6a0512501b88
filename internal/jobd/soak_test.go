package jobd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/wire"
)

// TestConnectionSoak drives thousands of connections through one
// server in sequential waves (bounding concurrent FDs and goroutines
// so the run stays race-detector-friendly), with every connection
// submitting a handful of jobs. The oracle is the at-most-once
// contract end to end: every ACKED submission's payload index executes
// exactly once, and a long-lived subscriber sees each job id complete
// at most once.
//
// Short mode runs 8 waves of 256 connections (2048 total); full mode
// doubles the wave count.
func TestConnectionSoak(t *testing.T) {
	waves, perWave, jobsPerConn := 8, 256, 4
	if !testing.Short() {
		waves = 16
	}
	total := waves * perWave * jobsPerConn

	executed := make([]atomic.Int32, total)
	reg := NewRegistry()
	reg.Register("mark", 1, func(_ context.Context, p []byte) error {
		dec := wire.Decoder{B: p}
		executed[dec.U64()].Add(1)
		return nil
	})
	_, addr := testServer(t, Options{
		Registry: reg,
		MaxJobs:  total + (1 << 12),
		LogCells: 1 << 20,
		Shards:   2,
		Workers:  2,
		MaxBatch: 64,
		Tenants:  map[string]TenantLimits{"soak": {}},
	})

	// One long-lived subscriber across all waves: every completion event
	// for an id must arrive at most once.
	sub := testClient(t, addr, ClientOptions{})
	var evMu sync.Mutex
	evSeen := make(map[uint64]int)
	var evDup, evBad atomic.Int32
	if err := sub.Subscribe("soak", func(e Event) {
		evMu.Lock()
		evSeen[e.ID]++
		if evSeen[e.ID] > 1 {
			evDup.Add(1)
		}
		evMu.Unlock()
		if e.Status != StatusOK {
			evBad.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}

	var acked atomic.Int64
	var next atomic.Int64 // global payload-index allocator
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		errs := make(chan error, perWave)
		for i := 0; i < perWave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(addr, ClientOptions{})
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for j := 0; j < jobsPerConn; j++ {
					idx := next.Add(1) - 1
					var p [8]byte
					putCell(p[:], idx)
					if _, err := c.Submit("soak", "mark", 1, p[:], SubmitOptions{}); err != nil {
						errs <- fmt.Errorf("submit %d: %w", idx, err)
						return
					}
					acked.Add(1)
				}
				if err := c.Ping(); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("wave %d: %v", w, err)
		}
	}

	want := int64(total)
	if got := acked.Load(); got != want {
		t.Fatalf("acked %d submissions, want %d", got, want)
	}
	waitFor(t, 60*time.Second, func() bool {
		st, err := sub.Stats()
		return err == nil && st.Jobs.Pending == 0 && int64(st.Jobs.Performed) >= want
	}, "soak jobs draining")

	for i := int64(0); i < want; i++ {
		if n := executed[i].Load(); n != 1 {
			t.Fatalf("payload index %d executed %d times, want exactly 1", i, n)
		}
	}
	st, err := sub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Duplicates != 0 {
		t.Fatalf("dispatcher reports %d duplicates", st.Jobs.Duplicates)
	}
	if d := evDup.Load(); d != 0 {
		t.Fatalf("%d job ids delivered more than one completion event", d)
	}
	if b := evBad.Load(); b != 0 {
		t.Fatalf("%d completions with non-OK status", b)
	}
	// Event delivery is best-effort per subscriber (a slow subscriber
	// drops, never wedges), so assert a sane floor rather than equality.
	evMu.Lock()
	seen := len(evSeen)
	evMu.Unlock()
	if seen == 0 {
		t.Fatal("subscriber saw zero completion events")
	}
	t.Logf("soak: %d conns, %d jobs, %d events seen", waves*perWave, total, seen)
}
