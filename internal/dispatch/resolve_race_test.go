package dispatch

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBatchedResolutionRace hammers round resolution from three sides
// at once: shard loops firing whole rounds of completions, concurrent
// Handle.Done() readers making and draining the futures' channels, and
// callbacks that re-enter the dispatcher mid-resolution (a nested
// Do lands in the queue of the very shard that is firing —
// legal only because completions fire outside the shard lock). Every
// job must resolve exactly once on each side. Run under -race.
func TestBatchedResolutionRace(t *testing.T) {
	const (
		producers = 4
		outer     = 2000
	)
	d, err := New(Config{Shards: 4, Workers: 2, MaxBatch: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Each outer job is observed twice: once by its callback, once by a
	// dedicated goroutine blocked on the handle's future.
	seen := make([]atomic.Int32, outer)
	var nestedSubmitted, nestedResolved atomic.Int64
	var accepted, completions atomic.Int64 // outer and nested, callbacks only
	var subWG, readWG sync.WaitGroup
	ctx := context.Background()
	for p := 0; p < producers; p++ {
		subWG.Add(1)
		go func(p int) {
			defer subWG.Done()
			for i := p; i < outer; i += producers {
				idx := i
				h, err := d.Do(ctx, Task{
					Fn: func(context.Context) error { return nil },
					Callback: func(JobResult) {
						seen[idx].Add(1)
						completions.Add(1)
						if idx%97 == 0 {
							// Re-enter the dispatcher from inside a resolution
							// batch.
							nestedSubmitted.Add(1)
							if _, err := d.Do(context.Background(), Task{
								Fn: func(context.Context) error { return nil },
								Callback: func(JobResult) {
									nestedResolved.Add(1)
									completions.Add(1)
								},
							}); err != nil {
								t.Errorf("nested submit from callback: %v", err)
							} else {
								accepted.Add(1)
							}
						}
					},
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				accepted.Add(1)
				readWG.Add(1)
				go func() {
					defer readWG.Done()
					r := <-h.Done()
					if r.ID != h.ID {
						t.Errorf("future for id %d delivered result for id %d", h.ID, r.ID)
					}
					seen[idx].Add(1)
				}()
			}
		}(p)
	}
	subWG.Wait()
	d.Flush()
	// Nested submissions race the Flush snapshot; wait for them and the
	// future readers explicitly.
	waitFor(t, "nested callbacks resolved", func() bool {
		return nestedResolved.Load() == nestedSubmitted.Load()
	})
	readWG.Wait()

	for i := range seen {
		if c := seen[i].Load(); c != 2 {
			t.Fatalf("outer job %d observed %d resolutions (callback+future), want 2", i, c)
		}
	}
	if nestedSubmitted.Load() == 0 {
		t.Fatal("no nested submissions happened; re-entrancy went unexercised")
	}
	if c, a := completions.Load(), accepted.Load(); c != a {
		t.Fatalf("%d completions fired for %d accepted jobs", c, a)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
