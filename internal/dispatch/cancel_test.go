package dispatch

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/obs"
)

// TestDoCancelledFastPath: a Task whose submission ctx dies while it is
// still queued resolves Cancelled with the ctx's error at the next
// round assembly — the payload never runs — and the cancellation shows
// up in Stats, the per-shard metric family and the job's trace
// timeline. Conservation must hold: a cancelled job counts performed,
// so Flush still drains.
func TestDoCancelledFastPath(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 8, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Park the shard loop inside a round: anything submitted from here
	// stays queued until the blocker is released, so the cancellation
	// is guaranteed to be observed at round ASSEMBLY, not mid-round.
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := d.Do(context.Background(), bare(func() { close(started); <-release })); err != nil {
		t.Fatal(err)
	}
	<-started

	var ran atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	h, err := d.Do(ctx, Task{Fn: func(context.Context) error { ran.Store(true); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)

	select {
	case r := <-h.Done():
		if !r.Cancelled || r.Expired || r.Recovered {
			t.Fatalf("result = %+v, want Cancelled only", r)
		}
		if r.Err != context.Canceled {
			t.Fatalf("cancelled job Err = %v, want context.Canceled", r.Err)
		}
		if r.ID != h.ID {
			t.Fatalf("result id %d, want %d", r.ID, h.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job never resolved")
	}
	if ran.Load() {
		t.Fatal("cancelled payload ran")
	}
	d.Flush() // must not hang: the cancellation counted toward performed

	st := d.Stats()
	if st.Cancelled != 1 {
		t.Fatalf("Stats.Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Expired != 0 {
		t.Fatalf("Stats.Expired = %d, want 0 (cancellations must not count as expiries)", st.Expired)
	}
	if st.Performed != st.Submitted {
		t.Fatalf("conservation broken: performed %d != submitted %d", st.Performed, st.Submitted)
	}
	if st.Shards[0].Cancelled != 1 {
		t.Fatalf("shard Cancelled = %d, want 1", st.Shards[0].Cancelled)
	}

	var buf bytes.Buffer
	if err := d.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("amo_dispatcher_cancelled_jobs_total")) {
		t.Fatal("amo_dispatcher_cancelled_jobs_total missing from the exposition")
	}

	// Trace grammar: the cancelled job must end in a cancelled event and
	// never record started.
	events := d.Tracer().Timeline(h.ID)
	if len(events) == 0 {
		t.Fatal("cancelled job left no trace")
	}
	for _, e := range events {
		if e.Event == obs.TraceStarted {
			t.Fatalf("cancelled job recorded started: %+v", events)
		}
	}
	if last := events[len(events)-1].Event; last != obs.TraceCancelled {
		t.Fatalf("cancelled job's final trace event = %v, want cancelled", last)
	}
}

// TestDoCancelTooLate: a ctx cancelled only after the payload has run
// changes nothing — the job resolved as performed, exactly once.
func TestDoCancelTooLate(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	h, err := d.Do(ctx, Task{Fn: func(context.Context) error { ran.Store(true); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	r := <-h.Done()
	cancel()
	if r.Cancelled || r.Err != nil {
		t.Fatalf("result = %+v, want plain success", r)
	}
	if !ran.Load() {
		t.Fatal("payload never ran")
	}
	if st := d.Stats(); st.Cancelled != 0 {
		t.Fatalf("Stats.Cancelled = %d, want 0", st.Cancelled)
	}
}

// TestDoCancelledRace hammers the fast-path from many goroutines with
// contexts cancelled at arbitrary points relative to round assembly.
// Whatever the interleaving, every handle resolves exactly once, a
// cancelled resolution never ran its payload, and the counters add up.
func TestDoCancelledRace(t *testing.T) {
	d, err := New(Config{Shards: 2, Workers: 2, MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const (
		submitters = 8
		perG       = 200
	)
	ran := make([]atomic.Bool, submitters*perG)
	results := make([]JobResult, submitters*perG)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				idx := g*perG + i
				ctx, cancel := context.WithCancel(context.Background())
				h, err := d.Do(ctx, Task{Fn: func(context.Context) error {
					ran[idx].Store(true)
					return nil
				}})
				if err != nil {
					t.Errorf("Do: %v", err)
					cancel()
					return
				}
				if i%2 == 0 {
					cancel() // racing the round cut
				}
				results[idx] = <-h.Done()
				cancel()
			}
		}(g)
	}
	wg.Wait()
	d.Flush()

	var cancelled uint64
	for i := range results {
		r := results[i]
		switch {
		case r.Cancelled:
			cancelled++
			if ran[i].Load() {
				t.Fatalf("job %d resolved Cancelled but its payload ran", r.ID)
			}
			if r.Err != context.Canceled {
				t.Fatalf("job %d cancelled with Err = %v", r.ID, r.Err)
			}
		default:
			if !ran[i].Load() {
				t.Fatalf("job %d resolved performed but its payload never ran", r.ID)
			}
		}
	}
	st := d.Stats()
	if st.Cancelled != cancelled {
		t.Fatalf("Stats.Cancelled = %d, but %d handles resolved Cancelled", st.Cancelled, cancelled)
	}
	if st.Performed != st.Submitted {
		t.Fatalf("conservation broken: performed %d != submitted %d", st.Performed, st.Submitted)
	}
	if st.Duplicates != 0 {
		t.Fatalf("duplicates: %d", st.Duplicates)
	}
}
