package dispatch

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"unsafe"

	"atmostonce/internal/memtest"
	"atmostonce/internal/obs/eventlog"
)

// TestDispatcherRoundLoopAllocFree is the allocation gate for the
// steady-state round path: submit → queue → round → finishRound →
// Flush, with no future, no metrics and no tracer, must not allocate
// per job or per round once warm. The jobs go in one at a time through
// DoRunners with one static Runner — the only submission that costs
// nothing itself (a Do is a 64th of an allocation, its future's share of
// a slab: TestDoAllocs). The budget below is a small fraction of one
// allocation per ROUND (cycles cut several rounds), so a single heap
// allocation creeping into either the per-job submit path or the
// per-round loop trips it. The once-per-second dispatch_round heartbeat
// is no exception: a ring record is written into its slot and allocates
// nothing (eventlog:TestHandleAllocFree). With one shard nothing is ever
// stolen; TestStealRecordsWithoutAllocating is this gate with a thief.
func TestDispatcherRoundLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	one := []RunnerTask{{Runner: new(countRunner)}}
	// Warm every pool: queue blocks, runtime prewarm, the first heartbeat
	// record.
	for i := 0; i < 4096; i++ {
		if _, err := d.DoRunners(context.Background(), one); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	const jobs = 2048
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < jobs; i++ {
			if _, err := d.DoRunners(context.Background(), one); err != nil {
				t.Fatal(err)
			}
		}
		d.Flush()
	})
	t.Logf("allocs per %d-job cycle: %.3f", jobs, avg)
	// < 1 alloc per 2048-job cycle: a per-round leak shows up as several
	// per cycle, a per-job leak as thousands.
	if avg >= 1 {
		t.Errorf("steady-state cycle of %d jobs allocates %.2f times (want < 1)", jobs, avg)
	}
}

// TestStealRecordsWithoutAllocating is the round-loop gate with two
// shards and an uneven feed: calls alternate between one job and two, a
// call starts on the shard of its first id, so the singles land on the
// two shards in turn and every pair is split. The shards stay even only
// on average, and whichever runs dry beside the other's backlog steals
// from it. A steal moves entries through the thief's transit ring on
// pooled blocks and records dispatch_steal in the flight ring; neither
// may allocate.
func TestStealRecordsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r := new(countRunner)
	two := []RunnerTask{{Runner: r}, {Runner: r}}
	const jobs = 2048
	cycle := func() {
		for i := 0; i < jobs; i += 3 {
			for _, tasks := range [][]RunnerTask{two[:1], two} {
				if _, err := d.DoRunners(context.Background(), tasks); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Flush()
	}
	for i := 0; i < 4; i++ {
		cycle() // warm the block pool and the rings' block lists
	}
	for i := 0; i < eventlog.DefaultFlightCap; i++ {
		eventlog.Logger().Debug("warm") // a flight slot is allocated the first time the ring reaches it
	}
	before := d.Stats().StolenJobs
	avg := testing.AllocsPerRun(20, cycle)
	stolen := d.Stats().StolenJobs - before
	t.Logf("allocs per %d-job cycle: %.3f, with %d jobs stolen in 21 cycles", jobs, avg, stolen)
	if stolen == 0 {
		t.Fatal("nothing was stolen inside the measured cycles: the gate measured no steal")
	}
	if avg >= 1 {
		t.Errorf("steady-state cycle of %d jobs with steals allocates %.2f times (want < 1)", jobs, avg)
	}
}

// TestDispatcherResolveAllocs gates the completion path: a Runner hears
// its result through the queue entry it rode in on, so being told
// allocates exactly what submitting does — nothing (through Do the same
// path costs 1/64 per job, the future's share of its slab, with or
// without a Callback: TestDoAllocs).
func TestDispatcherResolveAllocs(t *testing.T) {
	r := new(countRunner)
	one := []RunnerTask{{Runner: r}}
	perJob := allocsPerJob(t, func(d *Dispatcher) {
		if _, err := d.DoRunners(context.Background(), one); err != nil {
			t.Fatal(err)
		}
	})
	if perJob > 0.01 {
		t.Errorf("a resolved Runner allocates %.3f per job (want ≤ 0.01)", perJob)
	}
	if ran, resolved := r.ran.Load(), r.resolved.Load(); ran == 0 || resolved != ran {
		t.Errorf("ran %d, resolved %d: every job that ran must have been told", ran, resolved)
	}
}

// allocsPerJob measures one submission path end to end — submit, queue,
// round, completion, Flush — on a warm in-memory dispatcher, in
// allocations per job.
func allocsPerJob(t *testing.T, submit func(*Dispatcher)) float64 {
	t.Helper()
	return allocsPerJobOn(t, Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 256}, 2048, submit)
}

// allocsPerJobOn is allocsPerJob over a dispatcher of the given shape,
// in allocCycles cycles of jobs submissions each: four to warm up,
// AllocsPerRun's own warm-up cycle and its 20 measured ones.
func allocsPerJobOn(t *testing.T, cfg Config, jobs int, submit func(*Dispatcher)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 4*jobs; i++ {
		submit(d)
	}
	d.Flush()
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < jobs; i++ {
			submit(d)
		}
		d.Flush()
	})
	t.Logf("allocs per %d-job cycle: %.1f (%.3f per job)", jobs, avg, avg/float64(jobs))
	return avg / float64(jobs)
}

const allocCycles = 4 + 1 + 20

// TestDoAllocs: a Do costs a 64th of ONE heap object, the slab its future
// is carved from — whether or not the caller's ctx can be cancelled (the
// ctx rides the entry), and with no channel until somebody calls Done.
func TestDoAllocs(t *testing.T) {
	var resolved atomic.Uint64
	task := Task{
		Fn:       func(context.Context) error { return nil },
		Callback: func(JobResult) { resolved.Add(1) },
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", cctx}} {
		t.Run(tc.name, func(t *testing.T) {
			perJob := allocsPerJob(t, func(d *Dispatcher) {
				if _, err := d.Do(tc.ctx, task); err != nil {
					t.Fatal(err)
				}
			})
			if perJob > 0.05 {
				t.Errorf("Do allocates %.3f per job (want ≤ 0.05: a 64th of a slab)", perJob)
			}
		})
	}
}

// TestDurableJournalBatchOneAllocs: a durable Do still costs the future —
// a 64th of a slab — and nothing else. The flush sorts the worker's claim
// buffer in place and hands the backend a slice of a shadow page through
// an interface — at JournalBatch 1 one word — and the buffer is sized once
// at open and a page allocated once per 4 096 ids at most, so neither the
// default nor the group-commit setting allocates per job or per claim.
func TestDurableJournalBatchOneAllocs(t *testing.T) {
	requireMmap(t)
	// One round per cycle: at JournalBatch 1 over mmap every job is an
	// msync, so the cycles are kept short.
	const jobs = 256
	task := Task{Fn: func(context.Context) error { return nil }}
	for _, backend := range []string{"counting", "mmap"} {
		for _, jb := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/batch%d", backend, jb), func(t *testing.T) {
				cfg := Config{
					Shards: 1, WorkersPerShard: 2, MaxBatch: 256, MaxJobs: allocCycles * jobs, JournalBatch: jb,
					newMem: perShard(func(_, size int) *memtest.Lossy { return memtest.NewLossy(size) }),
				}
				if backend == "mmap" {
					cfg.newMem, cfg.Backend = nil, "mmap:"+filepath.Join(t.TempDir(), "regs")
				}
				perJob := allocsPerJobOn(t, cfg, jobs, func(d *Dispatcher) {
					if _, err := d.Do(context.Background(), task); err != nil {
						t.Fatal(err)
					}
				})
				if perJob > 0.05 {
					t.Errorf("durable Do over %s at JournalBatch %d allocates %.3f per job (want ≤ 0.05: a 64th of a slab)", backend, jb, perJob)
				}
			})
		}
	}
}

// TestDoBatchAllocs: a DoBatch call allocates its two result slices
// (futures, handles) whatever the batch size — never per task.
func TestDoBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var resolved atomic.Uint64
	for _, n := range []int{256, 4096} {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{
				Fn:       func(context.Context) error { return nil },
				Callback: func(JobResult) { resolved.Add(1) },
			}
		}
		cycle := func() {
			if _, err := d.DoBatch(context.Background(), tasks); err != nil {
				t.Fatal(err)
			}
			d.Flush()
		}
		for i := 0; i < 4; i++ {
			cycle() // warm the block pool to this batch size
		}
		avg := testing.AllocsPerRun(20, cycle)
		t.Logf("allocs per DoBatch of %d: %.1f", n, avg)
		if avg > 8 {
			t.Errorf("DoBatch of %d tasks allocates %.1f times per call (want ≤ 8)", n, avg)
		}
	}
}

// countRunner is a Runner that counts: the caller-owned object of
// TestRunnerBatchAllocs, reused across submissions.
type countRunner struct{ ran, resolved atomic.Uint64 }

func (c *countRunner) Run(context.Context) error { c.ran.Add(1); return nil }
func (c *countRunner) Resolved(JobResult)        { c.resolved.Add(1) }

// TestRunnerBatchAllocs: a DoRunners call allocates NOTHING — no plan
// slice, no escaping closure, no Handle, no future — and neither does the
// job on its way through queue, round, journal and Resolved: at n = 1
// (the tick of one) and n = 64, in memory and over a counting test store at
// both journal settings.
func TestRunnerBatchAllocs(t *testing.T) {
	const calls = 512
	r := new(countRunner)
	for _, n := range []int{1, 64} {
		tasks := make([]RunnerTask, n)
		for i := range tasks {
			tasks[i] = RunnerTask{Runner: r}
		}
		for _, jb := range []int{0, 1, 16} { // 0 = in memory
			name := fmt.Sprintf("n%d/memory", n)
			cfg := Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 256}
			if jb > 0 {
				name = fmt.Sprintf("n%d/counting_batch%d", n, jb)
				cfg.MaxJobs, cfg.JournalBatch = allocCycles*calls*n, jb
				cfg.newMem = perShard(func(_, size int) *memtest.Lossy { return memtest.NewLossy(size) })
			}
			t.Run(name, func(t *testing.T) {
				before := r.resolved.Load()
				perCall := allocsPerJobOn(t, cfg, calls, func(d *Dispatcher) {
					if _, err := d.DoRunners(context.Background(), tasks); err != nil {
						t.Fatal(err)
					}
				})
				if perCall > 0.01 {
					t.Errorf("DoRunners of %d allocates %.3f times per call, submit through resolve (want 0)", n, perCall)
				}
				if got := r.resolved.Load() - before; got != allocCycles*calls*uint64(n) {
					t.Errorf("%d jobs resolved, want %d", got, allocCycles*calls*n)
				}
			})
		}
	}
}

// TestHandleDoneAllocs: the future's channel is paid for by the handles
// that ask for it, when they ask — two objects (channel header and
// buffer), also long after the job resolved.
func TestHandleDoneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const runs = 50
	handles := make([]Handle, runs+1) // AllocsPerRun makes one warm-up call
	for i := range handles {
		if handles[i], err = d.Do(context.Background(), Task{Fn: func(context.Context) error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		h := handles[next]
		next++
		if r := <-h.Done(); r.ID != h.ID {
			t.Fatalf("late future delivered id %d, want %d", r.ID, h.ID)
		}
		h.Done() // the second call is free
	})
	if avg > 2 {
		t.Errorf("a first Handle.Done() allocates %.1f times (want ≤ 2)", avg)
	}
}

// TestEntryIsOneCacheLine: entries are copied submitter → ring → batch,
// and again on requeues and steals, so the struct stays at one line.
func TestEntryIsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz != 64 {
		t.Fatalf("entry is %d bytes, want 64", sz)
	}
}
