package jobd

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/memtest"
)

// The tick table's run: 2 shards × 2 workers, and a fixed script of three
// ticks. Tick 1 commits more than a 16-cell page; every cell of every
// record is non-zero, so a lost cell is a damaged record.
const (
	tickShards  = 2
	tickWorkers = 2
	tickCells   = 256 // each store: the log, and more than a journal needs
)

var tickScript = [][]int{{8, 200, 8}, {30}, {8, 8}} // payload bytes of each tick's submits

// scriptJobs is the script's descriptors in admission order: job i is
// the i-th, its payload the byte 0xa0+i over and over.
func scriptJobs() []desc {
	var ds []desc
	for _, tick := range tickScript {
		for _, n := range tick {
			ds = append(ds, desc{tenant: "t", task: "mark", version: 1, payload: bytes.Repeat([]byte{byte(0xa0 + len(ds))}, n)})
		}
	}
	return ds
}

// TestTickCrashWindows is jobd's crash table, TestFlushCrashWindows one
// level up. A host of three memtest.Lossy — the stores .shard0, .shard1
// and .desclog of one lossy: spec — dies at its N-th acked write: each
// shard fingerprint, the log magic, each tick's log commit and each
// journal flush, in every memtest.Phases phase. N runs over every acked
// write a dry run of the same script makes, at JournalBatch 1 and 4; a
// row is named batch<k>/<phase>/w<N>. The rows at an acked journal flush
// are DESIGN.md §12's kill after a flush ack: it lands after a shard's
// flush ack and before the tick that sends the job's completion event.
//
// The successor is open and replay over the stores the death left, then
// settle. Every row asserts:
//   - the log and the journals reopen without refusal;
//   - no job runs twice across both incarnations;
//   - every submit whose ack was queued before the death is in the log,
//     under its id: the log is a prefix of the script's admission order;
//   - a commit that dies torn reopens as its whole ticks before it and
//     the prefix of its records whose every cell landed;
//   - every logged descriptor with no journal bit re-executes exactly once;
//   - a worker loses at most JournalBatch jobs: journaled in its row,
//     payload never ran.
func TestTickCrashWindows(t *testing.T) {
	// One P, as in the dispatcher's table: a run nearly always repeats the
	// dry run's writes, and one that does not still meets the oracle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, jb := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch%d", jb), func(t *testing.T) {
			writes := tickRun(t, jb, 0, nil).host.Writes()
			for _, ph := range memtest.Phases {
				if slices.Max(writes) < ph.Cells {
					continue
				}
				t.Run(ph.Name, func(t *testing.T) {
					for i, cells := range writes {
						if cells >= ph.Cells {
							t.Run(fmt.Sprintf("w%d", i+1), func(t *testing.T) { tickWindow(t, jb, i+1, ph.Tear) })
						}
					}
				})
			}
		})
	}
}

// tickIncarnation is one doomed incarnation's run of the script.
type tickIncarnation struct {
	host *memtest.Host
	ran  []atomic.Int32 // payload runs by script index
	died bool

	mu    sync.Mutex
	acked map[uint64]int // id → script index, for every ack queued so far
}

// tickOptions is the table's server over the lossy stores named name.
func tickOptions(name string, jb int, run func(idx int)) Options {
	reg := NewRegistry()
	reg.Register("mark", 1, func(_ context.Context, p []byte) error { run(int(p[0]) - 0xa0); return nil })
	return Options{
		Registry: reg, Backend: "lossy:" + name, MaxJobs: 64, LogCells: tickCells,
		Shards: tickShards, Workers: tickWorkers, MaxBatch: 32, JournalBatch: jb,
		Tenants: map[string]TenantLimits{"t": {}},
	}
}

// lossyFamily files stores under name as its .shard0, .shard1 and .desclog.
func lossyFamily(name string, stores []*memtest.Lossy) {
	for i, sfx := range []string{".shard0", ".shard1", ".desclog"} {
		lossyStores.Store(name+sfx, stores[i])
	}
}

// tickRun runs the script on a goroutine over a fresh host that dies at
// its at-th acked write (never at 0), one tick after another, each
// settled before the next, and returns once the host is dead or the
// script is done. A commit that dies torn does not return until the
// burial, so the dead incarnation is left as the crash left it until the
// test ends; then the host is buried, the incarnation runs out and is
// shut.
func tickRun(t *testing.T, jb, at int, tear func(i, n int) bool) *tickIncarnation {
	t.Helper()
	r := &tickIncarnation{ran: make([]atomic.Int32, len(scriptJobs())), acked: map[uint64]int{}}
	stores := []*memtest.Lossy{memtest.NewLossy(tickCells), memtest.NewLossy(tickCells), memtest.NewLossy(tickCells)}
	r.host = memtest.NewHost(at, tear, stores...)
	// The log's store yields before each acked write, as a write to a disk
	// or a socket does: work a tick set going before its commit runs first.
	stores[2].Hook = func(int, []int64) error { runtime.Gosched(); return nil }
	lossyFamily(t.Name()+"/dead", stores)
	o := tickOptions(t.Name()+"/dead", jb, func(idx int) { r.host.Run(func() { r.ran[idx].Add(1) }) })

	var s *Server
	done := make(chan error, 1)
	go func() {
		var recs []job
		var err error
		if s, recs, err = open(o); err == nil {
			err = s.replay(recs)
		}
		if err != nil {
			done <- err
			return
		}
		c := fakeConn(s)
		ds, idx := scriptJobs(), 0
		for _, tick := range tickScript {
			var inbox []coreReq
			for range tick {
				j := &job{desc: ds[idx], s: s}
				j.fn = s.reg.lookup(j.task, j.version)
				inbox = append(inbox, coreReq{op: jopSubmit, seq: uint32(idx), c: c, j: j})
				idx++
			}
			s.tick(inbox, nil)
			fs, _ := sent(t, c)
			r.mu.Lock()
			for _, f := range fs {
				if f.op == jopSubmitOK {
					r.acked[ackID(t, f)] = int(f.seq)
				}
			}
			r.mu.Unlock()
			s.settle()
		}
		done <- nil
	}()
	shut := func() {
		if s != nil {
			s.shut(t)
		}
	}
	select {
	case <-r.host.Dead():
		r.died = true
		t.Cleanup(func() {
			r.host.Bury()
			select {
			case err := <-done:
				if err == nil {
					shut()
				}
			case <-time.After(20 * time.Second):
				t.Error("the dead incarnation did not run out once buried")
			}
		})
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		shut()
	case <-time.After(20 * time.Second):
		t.Fatal("the script neither finished nor died")
	}
	return r
}

func tickWindow(t *testing.T, jb, at int, tear func(i, n int) bool) {
	r := tickRun(t, jb, at, tear)
	if !r.died {
		t.Skipf("this run made fewer than %d acked writes", at)
	}
	death := r.host.Death()
	ds := scriptJobs()

	// What the stores hold, read before the successor writes to them: the
	// log, off a copy, and each worker's journal row, where DESIGN.md §7
	// lays it out — after 8 cells of metadata, MaxJobs/64+1 words a
	// worker, bit id of a word for job id.
	_, recs, err := openLogOn(copyStore(death.Stores[2]), "the log")
	if err != nil {
		t.Fatalf("the log does not reopen: %v", err)
	}
	const meta, words = 8, 64/64 + 1
	var rows [][]int // the ids in each row
	for sh := range tickShards {
		for p := range tickWorkers {
			row := make([]int64, words)
			death.Stores[sh].ReadRange(meta+p*words, row)
			var ids []int
			for w, c := range row {
				for b := uint64(c); b != 0; b &= b - 1 {
					ids = append(ids, w<<6+bits.TrailingZeros64(b))
				}
			}
			rows = append(rows, ids)
		}
	}

	// The successor: the stores as the crash left them.
	lossyFamily(t.Name()+"/succ", death.Stores)
	ranAfter := make([]atomic.Int32, len(ds))
	s := steppedServer(t, tickOptions(t.Name()+"/succ", jb, func(idx int) { ranAfter[idx].Add(1) }))
	s.settle()
	st := s.d.Stats()
	logged := len(recs)
	if int(s.replayed) != logged {
		t.Fatalf("the successor replayed %d of the log's %d records", s.replayed, logged)
	}

	// The log is a prefix of the script: whole ticks, and of a commit that
	// died in its write the records whose every cell landed.
	for i := range recs {
		if i >= len(ds) || !sameDesc(&recs[i], &ds[i]) {
			t.Fatalf("record %d of the log is %+v, not the script's", i, &recs[i])
		}
	}
	starts := make([]int, len(ds)+1)
	starts[0] = 1
	for i := range ds {
		starts[i+1] = starts[i] + recCells(ds[i].encodedLen())
	}
	want, exact := 0, false
	if death.Store == 2 && death.Addr > 0 {
		for want < len(ds) && starts[want] < death.Addr {
			want++
		}
		for ; want < len(ds) && starts[want+1] <= death.Addr+len(death.New); want++ {
			whole := true
			for c := starts[want]; c < starts[want+1]; c++ {
				whole = whole && (tear == nil || tear(c-death.Addr, len(death.New)))
			}
			if !whole {
				break
			}
		}
		exact = true
	}
	bounds := []int{0}
	for _, tick := range tickScript {
		bounds = append(bounds, bounds[len(bounds)-1]+len(tick))
	}
	switch {
	case exact && logged != want:
		t.Errorf("the log reopened to %d records; the fatal commit at cell %d leaves %d", logged, death.Addr, want)
	case !exact && !slices.Contains(bounds, logged):
		t.Errorf("the log reopened to %d records, not a tick boundary %v", logged, bounds)
	}
	r.mu.Lock()
	for id, idx := range r.acked {
		if id != uint64(idx+1) || idx >= logged {
			t.Errorf("submit %d was acked as id %d before the death; the successor's log holds %d records", idx, id, logged)
		}
	}
	r.mu.Unlock()

	lost := 0
	for idx := range ds {
		before, after := r.ran[idx].Load(), ranAfter[idx].Load()
		switch {
		case before+after > 1:
			t.Errorf("job %d ran %d times before the death and %d after", idx, before, after)
		case idx >= logged && before+after > 0:
			t.Errorf("job %d ran and its descriptor is not in the log", idx)
		case idx < logged && before+after == 0:
			lost++
		}
	}
	t.Logf("fatal write: store %d cell %d, %d cells; %d records logged, %d recovered, %d re-executed, %d lost",
		death.Store, death.Addr, len(death.New), logged, st.Recovered, s.reexecuted, lost)
	if int(st.Recovered)+int(s.reexecuted) != logged || st.Duplicates != 0 {
		t.Errorf("of %d logged descriptors %d resolved Recovered and %d re-executed (%d duplicates), want every one either",
			logged, st.Recovered, s.reexecuted, st.Duplicates)
	}
	// A worker loses the journaled jobs whose payload never ran: at most
	// JournalBatch. The rows must hold what the successor recovered, or
	// they were not read where the journal is.
	journaled, rowLost := 0, 0
	for w, ids := range rows {
		k := 0
		for _, id := range ids {
			if id < 1 || id > logged {
				t.Fatalf("worker %d's row holds id %d; the log holds %d records", w, id, logged)
			}
			if r.ran[id-1].Load() == 0 {
				k++
			}
		}
		if k > jb {
			t.Errorf("worker %d lost %d jobs, want ≤ JournalBatch = %d", w, k, jb)
		}
		journaled, rowLost = journaled+len(ids), rowLost+k
	}
	if journaled != int(st.Recovered) || rowLost != lost {
		t.Errorf("the journal rows hold %d ids, %d of them lost; the successor recovered %d, and %d jobs never ran", journaled, rowLost, st.Recovered, lost)
	}
}
