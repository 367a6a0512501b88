//go:build linux

package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// The closed-loop generator for the three dispatcher workloads: two
// producers, each keeping 4096 Do calls with a Callback outstanding.

const (
	producers   = 2
	outstanding = 4096 // per producer
)

// slot is one of a producer's outstanding jobs. Its Task — payload and
// callback closures bound to the slot — is built once and reused for
// every job that passes through the slot, so the generator allocates
// nothing per job and allocs_per_job is the program's alone.
type slot struct {
	seq  uint64
	task task
}

// streamer drives one dispatcher through warm-up, the timed window and the
// re-submission after a reopen.
type streamer struct {
	orc  *oracle
	rec  *recorder
	free [producers]chan *slot

	work      atomic.Uint64 // the payload's one atomic add
	failed    atomic.Uint64 // Do errors and payload/result errors
	recovered atomic.Uint64 // completions flagged Recovered
	resubmit  atomic.Bool   // after a reopen: completions must be Recovered
}

func newStreamer(orc *oracle, rec *recorder) *streamer {
	st := &streamer{orc: orc, rec: rec}
	for p := range st.free {
		free := make(chan *slot, outstanding) // one place per slot: never blocks a callback
		st.free[p] = free
		for i := 0; i < outstanding; i++ {
			s := &slot{}
			s.task = task{
				Fn: func(context.Context) error {
					seq := s.seq
					if rec.traced {
						rec.stamp(stRun, seq)
					}
					orc.Ran(seq)
					st.work.Add(1)
					if rec.traced {
						rec.stamp(stRan, seq)
					}
					return nil
				},
				Callback: func(r jobResult) {
					seq := s.seq
					switch {
					case st.resubmit.Load():
						if r.Recovered {
							st.recovered.Add(1)
						}
					case r.Err != nil || r.Expired || r.Cancelled || r.Recovered:
						st.failed.Add(1)
					default:
						rec.stamp(stDone, seq)
						orc.Done(seq)
					}
					free <- s
				},
			}
			free <- s
		}
	}
	return st
}

// submit pushes the sequence numbers lo..hi-1 through d, striped over the
// producers, and returns when every one of them has resolved.
func (st *streamer) submit(d *dispatcher, lo, hi uint64) error {
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ctx := context.Background()
			free, rec := st.free[p], st.rec
			for seq := lo + uint64(p); seq < hi; seq += producers {
				s := <-free
				s.seq = seq
				rec.stamp(stSubmit, seq)
				if _, err := d.Do(ctx, s.task); err != nil {
					st.failed.Add(1)
					errs[p] = fmt.Errorf("submit seq %d: %w", seq, err)
					free <- s
					return
				}
				if rec.traced {
					rec.stamp(stAck, seq)
				}
				if !st.resubmit.Load() {
					st.orc.Accepted(seq)
				}
			}
		}(p)
	}
	wg.Wait()
	d.Flush()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
