package dispatch

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/memtest"
)

// crashHost is a machine that dies at one chosen journal flush: its
// shards' stores lose what was not acked (memtest.Lossy), the flush it
// dies at lands torn, and from that instant nothing of the incarnation
// moves again — no write lands, no payload starts. mu makes the death
// one point in time for every worker.
type crashHost struct {
	mu     sync.Mutex
	stores []*memtest.Lossy // one per shard
	dead   chan struct{}    // closed at the crash

	minWords, at int                 // die at the at-th journal write of ≥ minWords words
	keep         func(i, n int) bool // which of its n words land; nil: all, and the write is acked first
	seen         int                 // qualifying writes so far
	shard, row   int                 // where the fatal write went
	claimed      map[int]bool        // the ids it claimed: true where their word landed
	ran          []atomic.Int32      // payload runs by id, both incarnations
}

func (h *crashHost) isDead() bool {
	select {
	case <-h.dead:
		return true
	default:
		return false
	}
}

// payload is job id's: it starts only on a live host.
func (h *crashHost) payload(id int) Task {
	return bare(func() {
		h.mu.Lock()
		if h.isDead() {
			h.mu.Unlock()
			select {}
		}
		h.ran[id].Add(1)
		h.mu.Unlock()
	})
}

// crashBackend is one shard's store as the doomed incarnation sees it.
type crashBackend struct {
	*memtest.Lossy
	h            *crashHost
	shard, words int // words in a journal row
}

func (b *crashBackend) WriteAcked(addr int, vals []int64) error {
	h := b.h
	h.mu.Lock()
	if h.isDead() {
		h.mu.Unlock()
		select {}
	}
	if addr >= jmetaCells && len(vals) >= h.minWords {
		h.seen++
	}
	if addr < jmetaCells || len(vals) < h.minWords || h.seen < h.at {
		defer h.mu.Unlock()
		return b.Lossy.WriteAcked(addr, vals)
	}
	// The fatal flush. Its new bits are the ids it claims.
	old := make([]int64, len(vals))
	b.Lossy.ReadRange(addr, old)
	row0 := (addr - jmetaCells) / b.words * b.words
	h.shard, h.row, h.claimed = b.shard, row0/b.words, map[int]bool{}
	for i, v := range vals {
		for w := uint64(v &^ old[i]); w != 0; w &= w - 1 {
			id := (addr-jmetaCells-row0+i)<<6 + bits.TrailingZeros64(w)
			h.claimed[id] = h.keep == nil || h.keep(i, len(vals))
		}
	}
	if h.keep != nil {
		b.Lossy.Keep = func(a int) bool { return h.keep(a-addr, len(vals)) }
	}
	b.Lossy.WriteAcked(addr, vals)
	for _, s := range h.stores {
		s.Crash()
	}
	close(h.dead)
	h.mu.Unlock()
	if h.keep != nil {
		select {} // died inside the write: no ack
	}
	return nil // acked, and dead before the first payload starts
}

// TestFlushCrashWindows lands a host crash on purpose in every window of
// the journal flush, on 2 shards × 2 workers at JournalBatch 1 and 16:
// before the ack with none, only the first, only the last, every other
// or all of the flush's words on the store — a torn write keeps any
// subset — and after the ack, before the first payload. A successor then
// takes the stores and the same stream. In every case no job runs twice,
// every job whose payload ran is in the journal, a worker loses at most
// JournalBatch jobs (claimed on the store, payload never started), the
// worker that died in its write loses exactly the claims whose word
// landed, and everything else runs exactly once in the successor.
//
// What is not here: a crash that loses words of an EARLIER flush. Acked
// means at the store's ordering point, so a store that forgets an acked
// word has broken the Backend contract, not exercised it; Lossy cannot
// represent that state and the dispatcher does not defend against it.
func TestFlushCrashWindows(t *testing.T) {
	tears := []struct {
		name string
		keep func(i, n int) bool
	}{
		{"none", func(i, n int) bool { return false }},
		{"first", func(i, n int) bool { return i == 0 }},
		{"last", func(i, n int) bool { return i == n-1 }},
		{"every other", func(i, n int) bool { return i%2 == 0 }},
		{"all", func(i, n int) bool { return true }},
		{"acked", nil},
	}
	for _, jb := range []int{1, 16} {
		for _, tear := range tears {
			t.Run(fmt.Sprintf("batch%d/%s", jb, tear.name), func(t *testing.T) {
				flushCrashWindow(t, jb, tear.keep)
			})
		}
	}
}

func flushCrashWindow(t *testing.T, jb int, keep func(i, n int) bool) {
	const (
		n       = 1500
		shards  = 2
		workers = 2
		words   = n/64 + 1
	)
	h := &crashHost{dead: make(chan struct{}), minWords: 1, at: 40, keep: keep, ran: make([]atomic.Int32, n+1)}
	if jb > 1 {
		h.minWords, h.at = 2, 3 // a flush of several words, so the tears differ
	}
	for s := 0; s < shards; s++ {
		h.stores = append(h.stores, memtest.NewLossy(jmetaCells+workers*words))
	}
	cfg := Config{Shards: shards, WorkersPerShard: workers, MaxBatch: 256, MaxJobs: n, JournalBatch: jb}

	// The doomed incarnation. Job 1 holds its shard until the stream is
	// queued, so rounds are full and claims come sixteen at a time.
	cfg.newMem = func(shard, _ int) (membackend.Backend, error) {
		return &crashBackend{Lossy: h.stores[shard], h: h, shard: shard, words: words}, nil
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	for id := 1; id <= n; id++ {
		task := h.payload(id)
		if run := task.Fn; id <= shards {
			task.Fn = func(ctx context.Context) error { <-start; return run(ctx) }
		}
		if _, err := d1.Do(context.Background(), task); err != nil {
			t.Fatal(err)
		}
	}
	close(start)
	select {
	case <-h.dead:
	case <-time.After(20 * time.Second):
		t.Fatalf("no journal write of ≥ %d words in a stream of %d jobs", h.minWords, n)
	}
	// d1 is left as the crash left it: workers parked, nothing closed.

	// What the stores hold, and what ran: row p of shard s names worker
	// p's claims.
	h.mu.Lock()
	type worker struct{ shard, row int }
	recorded := map[int]worker{}
	for s, st := range h.stores {
		cells := make([]int64, workers*words)
		st.ReadRange(jmetaCells, cells)
		for i, c := range cells {
			for w := uint64(c); w != 0; w &= w - 1 {
				id := i%words<<6 + bits.TrailingZeros64(w)
				if prev, dup := recorded[id]; dup {
					t.Fatalf("job %d is in two rows: %v and shard %d row %d", id, prev, s, i/words)
				}
				recorded[id] = worker{s, i / words}
			}
		}
	}
	lost := map[worker]int{}
	ranBefore := 0
	for id := 1; id <= n; id++ {
		w, rec := recorded[id]
		switch ran := h.ran[id].Load(); {
		case ran == 1 && !rec:
			t.Errorf("job %d ran and is not in the journal", id)
		case ran == 1:
			ranBefore++
		case rec:
			lost[w]++
		}
	}
	h.mu.Unlock()
	t.Logf("fatal flush: shard %d row %d, %d claims; %d jobs on the stores, %d ran, lost by worker %v",
		h.shard, h.row, len(h.claimed), len(recorded), ranBefore, lost)
	for w, k := range lost {
		if k > jb {
			t.Errorf("worker %v lost %d jobs, want ≤ JournalBatch = %d", w, k, jb)
		}
	}
	if keep != nil {
		landed := 0
		for id, kept := range h.claimed {
			if _, rec := recorded[id]; rec != kept {
				t.Errorf("job %d of the fatal flush: on the store %v, its word landed %v", id, rec, kept)
			}
			if kept {
				landed++
			}
		}
		if got := lost[worker{h.shard, h.row}]; got != landed {
			t.Errorf("the worker that died in its write lost %d jobs, want the %d claims whose word landed", got, landed)
		}
	}

	// The successor: same stores, same stream.
	cfg.newMem = func(shard, _ int) (membackend.Backend, error) { return h.stores[shard], nil }
	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("the stores do not reopen: %v", err)
	}
	for id := 1; id <= n; id++ {
		if _, err := d2.Do(context.Background(), bare(func() { h.ran[id].Add(1) })); err != nil {
			t.Fatal(err)
		}
	}
	d2.Flush()
	st := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 0 || st.Recovered != uint64(len(recorded)) {
		t.Errorf("successor: %d duplicates, %d recovered, want 0 and the %d jobs on the stores", st.Duplicates, st.Recovered, len(recorded))
	}
	nLost := 0
	for id := 1; id <= n; id++ {
		want := int32(1)
		if _, rec := recorded[id]; rec && h.ran[id].Load() == 0 {
			want, nLost = 0, nLost+1
		}
		if got := h.ran[id].Load(); got != want {
			t.Errorf("job %d ran %d times across the crash, want %d", id, got, want)
		}
	}
	if len(recorded) != ranBefore+nLost {
		t.Errorf("%d jobs on the stores, %d ran before the crash and %d were lost", len(recorded), ranBefore, nLost)
	}
}
