package dispatch

import (
	"context"
	"sync/atomic"
	"testing"

	"atmostonce/internal/membackend"
	"atmostonce/internal/memtest"
)

// rangeCounter counts the ReadRange calls (and cells) a dispatcher makes
// on its store: the cost of a shadow miss, and of the recovery scan.
type rangeCounter struct {
	*memtest.Lossy
	calls, cells atomic.Int64
}

func (r *rangeCounter) ReadRange(addr int, dst []int64) error {
	r.calls.Add(1)
	r.cells.Add(int64(len(dst)))
	return r.Lossy.ReadRange(addr, dst)
}

// shadowConfig is one shard of two workers over a single store that
// outlives its dispatchers; reopen hands the store to a successor the way
// a clean restart would.
func shadowConfig(maxJobs int) (cfg Config, rc *rangeCounter, reopen func()) {
	rc = &rangeCounter{Lossy: memtest.NewLossy(jmetaCells + 2*(maxJobs/64+1))}
	cfg = Config{Shards: 1, Workers: 2, MaxBatch: 256, MaxJobs: maxJobs, JournalBatch: 16,
		NewMem: func(int, int) (membackend.Backend, error) { return rc, nil }}
	return cfg, rc, func() { rc.Crash(); rc.calls.Store(0); rc.cells.Store(0) }
}

// journalWord ORs word w of both workers' rows, as the store holds them.
func journalWord(t *testing.T, b membackend.Backend, maxJobs, w int) uint64 {
	t.Helper()
	var or uint64
	for p := 0; p < 2; p++ {
		var cell [1]int64
		if err := b.ReadRange(jmetaCells+p*(maxJobs/64+1)+w, cell[:]); err != nil {
			t.Fatal(err)
		}
		or |= uint64(cell[0])
	}
	return or
}

// TestShadowMissReadsOnePage: a Low job (id 2) stays queued while High
// traffic — more ids than a worker's shadow covers — is performed ahead of
// it; when it finally runs, the page holding its bit is long evicted.
// Its bit must land beside the bits the row already holds in that word,
// not over them, at the cost of exactly one ReadRange of one page; every
// other page of the run had never been written when first touched and
// was never read. A reopen then recovers every id.
func TestShadowMissReadsOnePage(t *testing.T) {
	const n = (shadowPages + 2) * pageWords * 64
	cfg, rc, reopen := shadowConfig(n)
	var runs atomic.Int64
	held, start := make(chan struct{}), make(chan struct{})
	task := func(i int) Task {
		tk := bare(func() { runs.Add(1) })
		tk.Priority = High
		switch i {
		case 0: // holds the shard, alone in its round, until the whole stream is queued
			tk = bare(func() { close(held); <-start; runs.Add(1) })
			tk.Priority = High
		case 1:
			tk.Priority = Low
		}
		return tk
	}
	stream := func(d *Dispatcher) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := d.Do(context.Background(), task(i)); err != nil {
				t.Fatal(err)
			}
			if i == 0 && d.recLeft.Load() == 0 {
				<-held
			}
		}
	}

	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream(d1)
	close(start)
	d1.Flush()
	if got := runs.Load(); got != n {
		t.Fatalf("ran %d of %d jobs", got, n)
	}
	if calls, cells := rc.calls.Load(), rc.cells.Load(); calls != 1 || cells != pageWords {
		t.Errorf("%d ReadRange calls of %d cells in all, want 1 call of one page (%d cells)", calls, cells, pageWords)
	}
	if got := journalWord(t, rc, n, 0); got != ^uint64(1) {
		t.Errorf("word 0 of the rows holds %#x after the late claim of id 2, want every id 1..63", got)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	reopen()
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	stream(d2)
	d2.Flush()
	if st := d2.Stats(); st.Recovered != n || runs.Load() != n {
		t.Fatalf("after the reopen %d of %d jobs resolved Recovered and %d payloads ran in all", st.Recovered, n, runs.Load())
	}
}

// TestShadowAfterReopen: recovery fills the recovered set, not the
// shadows. The first claim a successor's worker makes in a page its
// predecessor wrote reads the page back, once, and its flush keeps the
// predecessor's bits; later claims in the page read nothing.
func TestShadowAfterReopen(t *testing.T) {
	const n, wave = 3*64 - 1, 64 // ids 1..191 fill three words
	cfg, rc, reopen := shadowConfig(n)
	var runs atomic.Int64
	incarnation := func(upTo int) (scan, afterFirst, afterSecond int64) {
		t.Helper()
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scan = rc.calls.Load()
		for i := 0; i < upTo; i++ {
			if i == upTo-wave {
				d.Flush()
				afterFirst = rc.calls.Load()
			}
			if _, err := d.Do(context.Background(), bare(func() { runs.Add(1) })); err != nil {
				t.Fatal(err)
			}
		}
		d.Flush()
		afterSecond = rc.calls.Load()
		if st := d.Stats(); st.Performed != uint64(upTo) {
			t.Fatalf("%d of %d jobs resolved (%d of them Recovered)", st.Performed, upTo, st.Recovered)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return scan, afterFirst, afterSecond
	}

	if _, _, reads := incarnation(wave); reads != 0 {
		t.Fatalf("%d ReadRange calls on a fresh store", reads)
	} else if got := journalWord(t, rc, n, 0); got != ^uint64(1) {
		t.Fatalf("word 0 holds %#x after ids 1..63", got)
	}
	reopen()
	// Ids 1..64 resolve Recovered; 65..127 and then 128..191 are claimed
	// in the page the predecessor wrote.
	scan, afterFirst, afterSecond := incarnation(n)
	if want := int64(1 + cfg.Workers); scan != want {
		t.Errorf("New made %d ReadRange calls, want %d (the fingerprint and one per row)", scan, want)
	}
	if got := afterFirst - scan; got < 1 || got > int64(cfg.Workers) {
		t.Errorf("%d ReadRange calls for the first claims in a recovered page, want one per worker that claimed", got)
	}
	if afterSecond-scan > int64(cfg.Workers) {
		t.Errorf("%d ReadRange calls after the page was read back, want none beyond one per worker", afterSecond-scan)
	}
	for w, want := range []uint64{^uint64(1), ^uint64(0), ^uint64(0)} {
		if got := journalWord(t, rc, n, w); got != want {
			t.Errorf("word %d holds %#x, want %#x: the predecessor's bits and the successor's", w, got, want)
		}
	}
	if got := runs.Load(); got != n {
		t.Fatalf("%d payloads ran across both incarnations, want %d", got, n)
	}
}
