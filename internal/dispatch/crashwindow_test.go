package dispatch

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/memtest"
)

// The crash table's run: 2 shards × 2 workers, 64 jobs.
const (
	crashJobs    = 64
	crashShards  = 2
	crashWorkers = 2
	crashWords   = crashJobs/64 + 1 // words in a journal row
)

// TestFlushCrashWindows is the crash table. A host of one memtest.Lossy
// per shard dies at its N-th acked write — each fingerprint written
// inside New and each journal flush — in every phase: before the write,
// torn (its first, last, every other or every cell landed, no ack) and
// acked. N runs over every acked write a dry run of the same config
// makes, at JournalBatch 1 and 4. A row is named batch<k>/<phase>/w<N>,
// so -run lands the same crash again.
//
// Every row asserts the oracle of record-then-do: a successor opens the
// stores; no job runs twice; every job whose payload ran is on a store;
// a worker loses at most JournalBatch jobs (on the store, payload never
// started), the worker that died in a journal write exactly the claims
// whose word landed; and the successor runs every other job exactly once,
// resolving the jobs on the stores Recovered.
//
// What is not here: a crash that loses words of an EARLIER write. Acked
// means at the store's ordering point, so a store that forgets an acked
// word has broken the Backend contract, not exercised it; Lossy cannot
// represent that state and the dispatcher does not defend against it.
func TestFlushCrashWindows(t *testing.T) {
	// One P: the split of a round between its workers is the scheduler's,
	// and on one P a run nearly always repeats the dry run's writes. A run
	// that does not still meets the oracle, at whichever write it dies.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, jb := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch%d", jb), func(t *testing.T) {
			writes := crashRun(t, jb, 0, nil).host.Writes()
			for _, ph := range memtest.Phases {
				if slices.Max(writes) < ph.Cells {
					continue
				}
				t.Run(ph.Name, func(t *testing.T) {
					for i, cells := range writes {
						if cells >= ph.Cells {
							t.Run(fmt.Sprintf("w%d", i+1), func(t *testing.T) { crashWindow(t, jb, i+1, ph.Tear) })
						}
					}
				})
			}
		})
	}
}

// crashIncarnation is one doomed incarnation's run over a host.
type crashIncarnation struct {
	host *memtest.Host
	ran  []atomic.Int32 // payload runs by id
	died bool
}

// crashRun runs the stream over a fresh host that dies at its at-th
// acked write (never at 0) and returns once the host is dead or every
// job ran. The dead incarnation is left as the crash left it until the
// test ends; then the host is buried, and the incarnation runs out.
func crashRun(t *testing.T, jb, at int, tear func(i, n int) bool) *crashIncarnation {
	t.Helper()
	r := &crashIncarnation{ran: make([]atomic.Int32, crashJobs+1)}
	var stores []*memtest.Lossy
	for s := 0; s < crashShards; s++ {
		stores = append(stores, memtest.NewLossy(jmetaCells+crashWorkers*crashWords))
	}
	r.host = memtest.NewHost(at, tear, stores...)
	cfg := crashConfig(jb, stores)
	done := make(chan error, 1)
	go func() {
		d, err := New(cfg)
		if err != nil {
			done <- err
			return
		}
		// One batch: each shard's first round is its whole half of the
		// stream, so claims come JournalBatch at a time.
		tasks := make([]Task, crashJobs)
		for i := range tasks {
			tasks[i] = bare(func() { r.host.Run(func() { r.ran[i+1].Add(1) }) })
		}
		if _, err := d.DoBatch(context.Background(), tasks); err != nil {
			done <- err
			return
		}
		d.Flush()
		done <- d.Close()
	}()
	select {
	case <-r.host.Dead():
		r.died = true
		t.Cleanup(func() {
			r.host.Bury()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Error("the dead incarnation did not run out once buried")
			}
		})
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the stream neither finished nor died")
	}
	return r
}

func crashConfig(jb int, stores []*memtest.Lossy) Config {
	return Config{Shards: crashShards, WorkersPerShard: crashWorkers, MaxBatch: 64, MaxJobs: crashJobs, JournalBatch: jb,
		newMem: perShard(func(shard, _ int) *memtest.Lossy { return stores[shard] })}
}

func crashWindow(t *testing.T, jb, at int, tear func(i, n int) bool) {
	r := crashRun(t, jb, at, tear)
	if !r.died {
		t.Skipf("this run made fewer than %d acked writes", at)
	}
	death := r.host.Death()
	succ := death.Stores

	// What the stores hold, and what ran: row p of shard s names worker
	// p's claims.
	type worker struct{ shard, row int }
	recorded := map[int]worker{}
	for s, st := range succ {
		cells := make([]int64, crashWorkers*crashWords)
		st.ReadRange(jmetaCells, cells)
		for i, c := range cells {
			for w := uint64(c); w != 0; w &= w - 1 {
				id := i%crashWords<<6 + bits.TrailingZeros64(w)
				if prev, dup := recorded[id]; dup {
					t.Fatalf("job %d is in two rows: %v and shard %d row %d", id, prev, s, i/crashWords)
				}
				recorded[id] = worker{s, i / crashWords}
			}
		}
	}
	lost := map[worker]int{}
	ranBefore := 0
	for id := 1; id <= crashJobs; id++ {
		w, rec := recorded[id]
		switch ran := r.ran[id].Load(); {
		case ran == 1 && !rec:
			t.Errorf("job %d ran and is not in the journal", id)
		case ran == 1:
			ranBefore++
		case rec:
			lost[w]++
		}
	}
	t.Logf("fatal write: shard %d cell %d, %d cells; %d jobs on the stores, %d ran, lost by worker %v",
		death.Store, death.Addr, len(death.New), len(recorded), ranBefore, lost)
	for w, k := range lost {
		if k > jb {
			t.Errorf("worker %v lost %d jobs, want ≤ JournalBatch = %d", w, k, jb)
		}
	}
	if death.Addr >= jmetaCells {
		// A journal flush: its new bits are the ids it claims.
		row0 := (death.Addr - jmetaCells) / crashWords * crashWords
		landed := 0
		for i, v := range death.New {
			for w := uint64(v &^ death.Old[i]); w != 0; w &= w - 1 {
				id := (death.Addr-jmetaCells-row0+i)<<6 + bits.TrailingZeros64(w)
				kept := tear == nil || tear(i, len(death.New))
				if _, rec := recorded[id]; rec != kept {
					t.Errorf("job %d of the fatal write: on the store %v, its word landed %v", id, rec, kept)
				}
				if kept {
					landed++
				}
			}
		}
		if got := lost[worker{death.Store, row0 / crashWords}]; got != landed {
			t.Errorf("the worker that died in its write lost %d jobs, want the %d claims whose word landed", got, landed)
		}
	}

	// The successor: the stores as the crash left them, the same stream.
	d, err := New(crashConfig(jb, succ))
	if err != nil {
		t.Fatalf("the stores do not reopen: %v", err)
	}
	for id := 1; id <= crashJobs; id++ {
		if _, err := d.Do(context.Background(), bare(func() { r.ran[id].Add(1) })); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	st := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 0 || st.Recovered != uint64(len(recorded)) {
		t.Errorf("successor: %d duplicates, %d recovered, want 0 and the %d jobs on the stores", st.Duplicates, st.Recovered, len(recorded))
	}
	nLost := 0
	for id := 1; id <= crashJobs; id++ {
		want := int32(1)
		if _, rec := recorded[id]; rec && r.ran[id].Load() == 0 {
			want, nLost = 0, nLost+1
		}
		if got := r.ran[id].Load(); got != want {
			t.Errorf("job %d ran %d times across the crash, want %d", id, got, want)
		}
	}
	if len(recorded) != ranBefore+nLost {
		t.Errorf("%d jobs on the stores, %d ran before the crash and %d were lost", len(recorded), ranBefore, nLost)
	}
}
