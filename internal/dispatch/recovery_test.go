package dispatch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/memtest"
	"atmostonce/internal/netmem"
)

// newMemFunc is the type of Config.newMem.
type newMemFunc = func(size int, insts []membackend.Instance) ([]membackend.Backend, []int64, error)

// shard0 is what New asks newMem for in a one-shard test's own open.
var shard0 = []membackend.Instance{{Suffix: ".shard0"}}

// mmapFactory returns a Config.newMem mapping each shard's register
// file under dir, so successive dispatchers share durable state.
func mmapFactory(dir string) newMemFunc {
	spec := "mmap:" + filepath.Join(dir, "regs")
	return func(size int, insts []membackend.Instance) ([]membackend.Backend, []int64, error) {
		return membackend.OpenEach(spec, size, insts...)
	}
}

// onHost opens a dispatcher of cfg over one fresh memtest.Lossy a shard,
// joined in a host that dies at its at-th acked write, acked. When the
// test ends the host is buried and the dead incarnation closed.
func onHost(t *testing.T, cfg Config, at int) (*Dispatcher, *memtest.Host) {
	t.Helper()
	var h *memtest.Host
	cfg.newMem = func(size int, insts []membackend.Instance) ([]membackend.Backend, []int64, error) {
		stores := make([]*memtest.Lossy, len(insts))
		for i := range stores {
			stores[i] = memtest.NewLossy(size)
		}
		h = memtest.NewHost(at, nil, stores...)
		return stamped(stores, insts)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.Bury()
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	})
	return d, h
}

// afterDeath waits for h to die and returns cfg over the stores it left.
func afterDeath(t *testing.T, cfg Config, h *memtest.Host) Config {
	t.Helper()
	select {
	case <-h.Dead():
	case <-time.After(20 * time.Second):
		t.Fatal("the host did not die")
	}
	succ := h.Death().Stores
	cfg.newMem = perShard(func(shard, _ int) *memtest.Lossy { return succ[shard] })
	return cfg
}

// perShard makes a Config.newMem of a picker of one shard's store.
func perShard(store func(shard, size int) *memtest.Lossy) newMemFunc {
	return func(size int, insts []membackend.Instance) ([]membackend.Backend, []int64, error) {
		stores := make([]*memtest.Lossy, len(insts))
		for i := range stores {
			stores[i] = store(i, size)
		}
		return stamped(stores, insts)
	}
}

// stamped opens stores as a backend kind's opener would open insts: a
// fresh store gets its instance's stamp in one acked write.
func stamped(stores []*memtest.Lossy, insts []membackend.Instance) ([]membackend.Backend, []int64, error) {
	bs, cell0 := make([]membackend.Backend, len(stores)), make([]int64, len(stores))
	for i, st := range stores {
		var err error
		if cell0[i], err = st.Stamp(insts[i].Stamp); err != nil {
			return nil, nil, err
		}
		bs[i] = st
	}
	return bs, cell0, nil
}

func requireMmap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("durable backend requires linux")
	}
}

// waitFor polls cond for up to 20s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoverMidRound is the heart of the durability story: a durable
// dispatcher is "killed" in the middle of its first round — its workers
// quiesce at action boundaries, the paper's crash model (§2.1), and the
// process state is simply abandoned — then a second dispatcher over the
// same register files recovers the journal and the re-submitted stream
// completes with zero duplicates and zero lost jobs.
func TestRecoverMidRound(t *testing.T) {
	requireMmap(t)
	const (
		n       = 2000
		workers = 4
		killAt  = 32
	)
	dir := t.TempDir()
	executions := make([]atomic.Int32, n+1)

	// Phase 1: the doomed incarnation. Once killAt payloads have run,
	// every subsequent payload blocks forever, so all workers end up
	// parked inside a payload (after its effect and its journal record)
	// and the round can never finish — a process frozen mid-round.
	var performed, blocked atomic.Int64
	gate := make(chan struct{}) // never closed: d1's workers stay frozen
	d1, err := New(Config{
		Shards: 1, WorkersPerShard: workers, MaxBatch: 512,
		newMem: mmapFactory(dir), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() {
			executions[id].Add(1)
			if performed.Add(1) >= killAt {
				blocked.Add(1)
				<-gate
			}
		})
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all workers frozen mid-round", func() bool { return blocked.Load() == workers })
	preCrash := performed.Load()
	// d1 is now abandoned without Close: its goroutines leak for the
	// test's lifetime, exactly like memory of a killed process.

	// Phase 2: recovery. Reopen the same register files and re-submit
	// the identical stream (same order, hence same ids).
	d2, err := New(Config{
		Shards: 1, WorkersPerShard: workers, MaxBatch: 512,
		newMem: mmapFactory(dir), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() { executions[id].Add(1) })
	}
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	st := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	if st.Recovered != uint64(preCrash) {
		t.Errorf("recovered %d jobs from the journal, want %d (the pre-crash performs)", st.Recovered, preCrash)
	}
	dup, lost := 0, 0
	for id := 1; id <= n; id++ {
		switch executions[id].Load() {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if dup != 0 {
		t.Errorf("at-most-once violated across the crash: %d duplicate executions", dup)
	}
	if lost != 0 {
		t.Errorf("%d jobs lost across the crash", lost)
	}
	if st.Duplicates != 0 {
		t.Errorf("round-level duplicates: %d", st.Duplicates)
	}
}

// TestRecoverRoundBoundary kills a multi-shard dispatcher with most of
// its stream still queued — its host dies at a journal flush, acked — and
// checks that the reopened dispatcher completes the stream: no job runs
// twice, and the only jobs that never run are the claims journaled in
// time whose payloads the death stopped, at most one a worker.
func TestRecoverRoundBoundary(t *testing.T) {
	const n, workers = 1000, 3
	cfg := Config{Shards: 2, WorkersPerShard: workers, MaxBatch: 64, MaxJobs: n}
	d1, h := onHost(t, cfg, 2+100) // the two fingerprints, then 100 flushes
	eo := newExactlyOnce(n)
	fns := make([]Task, n)
	for i := range fns {
		fns[i] = bare(func() { h.Run(func() { eo.counts[i].Add(1) }) })
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}

	d2, err := New(afterDeath(t, cfg, h))
	if err != nil {
		t.Fatal(err)
	}
	phase1 := eo.total()
	if phase1 >= n {
		t.Fatalf("phase 1 already drained everything (%d); the crash came too late to test recovery", phase1)
	}
	for i := range fns {
		fns[i] = eo.job(i)
	}
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	st := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	eo.verifyLoss(t, int(st.Recovered)-phase1, cfg.Shards*workers)
}

// TestRecoverAfterCleanClose reopens a drained register file: the whole
// re-submitted stream must resolve from the journal without a single
// payload run (idempotent restart).
func TestRecoverAfterCleanClose(t *testing.T) {
	requireMmap(t)
	const n = 300
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, WorkersPerShard: 2, MaxBatch: 32,
		newMem: mmapFactory(dir), MaxJobs: n,
	}
	var runs atomic.Int64
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		fns[i] = bare(func() { runs.Add(1) })
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != n {
		t.Fatalf("first incarnation ran %d payloads, want %d", got, n)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	if got := runs.Load(); got != n {
		t.Fatalf("restart re-ran payloads: %d total runs, want %d", got, n)
	}
	if st := d2.Stats(); st.Recovered != n {
		t.Fatalf("Recovered = %d, want %d", st.Recovered, n)
	}
}

// TestFreshFingerprintIsAcked: journal row p starts at cell
// 8 + (p−1)·⌈(MaxJobs+1)/64⌉, so a worker's flush need share no page with cell 0
// and nothing but an acked write of its own carries a fresh shard's
// fingerprint to the store. On a store that loses what was not acked, one
// job is journaled and performed and the host crashes: the successor
// opens the store and recovers the id, where a zero fingerprint over a
// journaled id would be refused as another configuration's.
func TestFreshFingerprintIsAcked(t *testing.T) {
	var store *memtest.Lossy
	cfg := Config{
		Shards: 1, WorkersPerShard: 2, MaxBatch: 32, MaxJobs: 1024,
		newMem: perShard(func(_, size int) *memtest.Lossy {
			if store == nil {
				store = memtest.NewLossy(size)
			}
			return store
		}),
	}
	var runs atomic.Int64
	job := []Task{bare(func() { runs.Add(1) })}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.DoBatch(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	store.Crash()
	d1.Close() // what the dead incarnation still says reaches a store that has forgotten it

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("the store does not reopen after losing every un-acked cell: %v", err)
	}
	defer d2.Close()
	if _, err := d2.DoBatch(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	if st := d2.Stats(); runs.Load() != 1 || st.Recovered != 1 {
		t.Fatalf("after the crash the job ran %d times in all and %d resolved Recovered, want 1 and 1", runs.Load(), st.Recovered)
	}
}

// TestUnstampedStoreOpensFresh: a shard store whose creator died after
// making it and before its fingerprint was acked holds zeros only, so it
// opens fresh, and what is then journaled survives a reopen. The same
// store with a journal bit and no fingerprint was written by another
// writer — no row is written before the fingerprint is acked — and is
// refused.
func TestUnstampedStoreOpensFresh(t *testing.T) {
	requireMmap(t)
	p := filepath.Join(t.TempDir(), "regs")
	cfg := Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 16, MaxJobs: 64, Backend: "mmap:" + p}
	create := func(row int64) {
		t.Helper()
		os.Remove(p + ".shard0")
		b, err := membackend.Open("mmap:"+p+".shard0", jmetaCells+2*2)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WriteAcked(jmetaCells, []int64{row}); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	create(0)
	var runs atomic.Int64
	for inc := 0; inc < 2; inc++ {
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("incarnation %d over the unstamped store: %v", inc+1, err)
		}
		if _, err := d.Do(context.Background(), bare(func() { runs.Add(1) })); err != nil {
			t.Fatal(err)
		}
		d.Flush()
		st := d.Stats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 1 || st.Recovered != uint64(inc) {
			t.Fatalf("incarnation %d: %d payload runs in all, %d recovered; want 1 and %d", inc+1, runs.Load(), st.Recovered, inc)
		}
	}
	create(1 << 3) // job 3 in worker 1's row
	if d, err := New(cfg); err == nil {
		d.Close()
		t.Fatal("a journal row without a fingerprint accepted")
	} else if !strings.Contains(err.Error(), "fingerprint 0x0") {
		t.Fatalf("refusal %v does not name the missing fingerprint", err)
	}
}

// TestRecoveryRefusesForeignJournalCell: the journal is read from outside
// the process, so a set bit that is no id this configuration could have
// assigned — bit 0, or one above MaxJobs in a row's last word — fails New,
// naming the row and the bit, instead of entering the recovered set.
func TestRecoveryRefusesForeignJournalCell(t *testing.T) {
	requireMmap(t)
	for _, tc := range []struct{ maxJobs, row, bit int }{
		{20, 1, 0},
		{20, 2, 21},
		{20, 1, 63},
		{100, 2, 0},
		{100, 1, 101}, // the last word of a two-word row
		{127, 2, 0},   // a row whose last word is all ids
	} {
		dir := t.TempDir()
		cfg := Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 8, newMem: mmapFactory(dir), MaxJobs: tc.maxJobs}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
		d.Flush()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// Corrupt one word in place, beside the journaled bit of id 1.
		jwords := tc.maxJobs/64 + 1
		bs, _, err := cfg.newMem(jmetaCells+2*jwords, shard0)
		if err != nil {
			t.Fatal(err)
		}
		b := bs[0]
		cell := jmetaCells + (tc.row-1)*jwords + tc.bit/64
		b.Write(cell, b.Read(cell)|1<<(tc.bit%64))
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := New(cfg)
		if err == nil {
			d2.Close()
			t.Fatalf("bit %d in row %d accepted with MaxJobs %d", tc.bit, tc.row, tc.maxJobs)
		}
		for _, want := range []string{fmt.Sprintf("row %d ", tc.row), fmt.Sprintf("bit %d ", tc.bit)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal of bit %d in row %d does not say %q: %v", tc.bit, tc.row, want, err)
			}
		}
	}
}

// TestReopenConfigMismatch: a register file written under one shape
// must be refused under another.
func TestReopenConfigMismatch(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	cfg := Config{
		Shards: 1, WorkersPerShard: 2, MaxBatch: 32,
		newMem: mmapFactory(dir), MaxJobs: 100,
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Do(context.Background(), bare(func() {})); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// A shape with a different register-file size is refused by the
	// backend's header check.
	bad := cfg
	bad.WorkersPerShard = 3
	bad.MaxBatch = 64
	if _, err := New(bad); err == nil {
		t.Fatal("reopen with different file size accepted")
	}
	// A shape with the SAME total size but different geometry gets past
	// the header and is refused by the fingerprint. The cell count is
	// 8 + m·⌈(MaxJobs+1)/64⌉, so MaxBatch alone changes the shape and not
	// the size.
	sly := cfg
	sly.MaxBatch = cfg.MaxBatch - 1
	if _, err := New(sly); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("size-preserving mismatched reopen: got %v", err)
	}
	// Shrinking the shard count must be refused too: shard 0's file has
	// the same size and geometry either way, but opening it under
	// Shards=1 would silently orphan the other shards' journals and
	// re-execute their jobs.
	multi := cfg
	multi.Shards = 2
	multi.newMem = mmapFactory(t.TempDir()) // fresh files; shard0 above was written under Shards=1
	dm, err := New(multi)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}
	shrunk := multi
	shrunk.Shards = 1
	if _, err := New(shrunk); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("shrunk shard count reopen: got %v", err)
	}
	// The original shape still opens.
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
}

// TestJournalFull: MaxJobs is exact on every submit path — N singles
// spread over 3 shards fit a journal of N, and ids beyond it are refused
// without moving anything.
func TestJournalFull(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	const n = 10
	d, err := New(Config{
		Shards: 3, WorkersPerShard: 2, MaxBatch: 8,
		newMem: mmapFactory(dir), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < n; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatalf("Do %d of %d: %v", i+1, n, err)
		}
	}
	// Ids beyond MaxJobs are refused; the failed lease moves nothing, so
	// no ids are burned and the journal capacity stays protected.
	if _, err := d.Do(context.Background(), bare(func() {})); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("submit past MaxJobs: got %v, want ErrJournalFull", err)
	}
	noop := bare(func() {})
	if _, err := d.DoBatch(context.Background(), []Task{noop, noop, noop, noop, noop}); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("batch past MaxJobs: got %v, want ErrJournalFull", err)
	}
	d.Flush()
	if cur, st := d.leased(), d.Stats(); cur != n || st.Submitted != n || st.Performed != n {
		t.Fatalf("after the refusals: cursor %d, submitted %d, performed %d, want %d each", cur, st.Submitted, st.Performed, n)
	}

	// Config sanity: newMem without MaxJobs is rejected.
	if _, err := New(Config{newMem: mmapFactory(dir)}); err == nil {
		t.Fatal("newMem without MaxJobs accepted")
	}
}

// TestBackendSpec: Config.Backend is turned into shard stores in one
// place. A volatile spec keeps no journal, so MaxJobs 0 and JournalBatch
// 7 open; every other spec keeps one store per shard, ".shard<i>" apart,
// and requires MaxJobs; and a store a test supplies wins over the spec.
func TestBackendSpec(t *testing.T) {
	requireMmap(t)
	open := func(cfg Config) *Dispatcher {
		t.Helper()
		cfg.Shards, cfg.WorkersPerShard, cfg.Metrics = 2, 2, true
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("Backend %q: %v", cfg.Backend, err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	journaled := func(d *Dispatcher) bool {
		for key := range d.Registry().Snapshot() {
			if strings.HasPrefix(key, "amo_membackend_journal_writes_total") {
				return true
			}
		}
		return false
	}
	for _, spec := range []string{"", "atomic"} {
		if journaled(open(Config{Backend: spec, MaxJobs: 0, JournalBatch: 7})) {
			t.Errorf("Backend %q keeps a journal", spec)
		}
	}
	p := filepath.Join(t.TempDir(), "regs")
	if _, err := New(Config{Backend: "mmap:" + p}); err == nil || !strings.Contains(err.Error(), "MaxJobs") {
		t.Fatalf("mmap without MaxJobs: %v, want a refusal naming MaxJobs", err)
	}
	if !journaled(open(Config{Backend: "mmap:" + p, MaxJobs: 64})) {
		t.Error("Backend mmap keeps no journal")
	}
	for _, f := range []string{p + ".shard0", p + ".shard1"} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("shard store: %v", err)
		}
	}
	var asked []int
	unused := filepath.Join(t.TempDir(), "unused")
	open(Config{Backend: "mmap:" + unused, MaxJobs: 64, newMem: perShard(func(shard, size int) *memtest.Lossy {
		asked = append(asked, shard)
		return memtest.NewLossy(size)
	})})
	if _, err := os.Stat(unused + ".shard0"); len(asked) != 2 || err == nil {
		t.Errorf("a test store beside Backend: asked for shards %v, Backend's file opened: %v", asked, err == nil)
	}
}

// TestReopenAfterJournalFull: exhausting the journal is not a dead end
// — the same configuration reopens over the same files, the whole
// re-submitted stream resolves from the journal without re-running a
// payload, and the capacity guard still holds for genuinely new ids. The
// last id, MaxJobs itself, has a bit wherever it falls in its word: the
// last bit of the row's only word (63), the first of a second word (64,
// 128), or in between.
func TestReopenAfterJournalFull(t *testing.T) {
	requireMmap(t)
	for _, n := range []int{24, 63, 64, 128} {
		reopenAfterJournalFull(t, n)
	}
}

func reopenAfterJournalFull(t *testing.T, n int) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 1, WorkersPerShard: 2, MaxBatch: 8,
		newMem: mmapFactory(dir), MaxJobs: n,
	}
	var runs atomic.Int64
	fns := make([]Task, n)
	for i := range fns {
		fns[i] = bare(func() { runs.Add(1) })
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	if _, err := d1.Do(context.Background(), bare(func() {})); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("submit past MaxJobs: %v, want ErrJournalFull", err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen after ErrJournalFull refused: %v", err)
	}
	defer d2.Close()
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	if got := runs.Load(); got != int64(n) {
		t.Fatalf("restart re-ran payloads: %d total, want %d", got, n)
	}
	if st := d2.Stats(); st.Recovered != uint64(n) {
		t.Fatalf("Recovered = %d, want %d", st.Recovered, n)
	}
	// The journal is still full: new ids keep being refused.
	if _, err := d2.Do(context.Background(), bare(func() {})); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("submit past MaxJobs after reopen: %v, want ErrJournalFull", err)
	}
}

// netFactory builds a Config.newMem over an in-process register server,
// one namespace per shard over one session, recording the clients so the
// test can sever them (simulating process death, which releases nothing
// until the lease is explicitly dropped or expires).
func netFactory(addr, ns string, clients *[]*netmem.NetMem) newMemFunc {
	return func(size int, insts []membackend.Instance) ([]membackend.Backend, []int64, error) {
		names, stamps := make([]string, len(insts)), make([]int64, len(insts))
		for i, in := range insts {
			names[i], stamps[i] = ns+in.Suffix, in.Stamp
		}
		ms, err := netmem.OpenSession(addr, names, stamps, size, netmem.Options{
			LeaseTTL: 500 * time.Millisecond,
			OnFatal:  func(error) {}, // a dead client shows up as errors, not a test-killing panic
		})
		if err != nil {
			return nil, nil, err
		}
		bs, cell0 := make([]membackend.Backend, len(ms)), make([]int64, len(ms))
		for i, m := range ms {
			bs[i] = m
			if m.Reopened() { // the hello's report is the net kind's to see
				if err := m.ReadRange(0, cell0[i:i+1]); err != nil {
					return nil, nil, err
				}
			}
		}
		if clients != nil {
			*clients = append(*clients, ms...)
		}
		return bs, cell0, nil
	}
}

// TestRecoverOverNetwork is TestRecoverMidRound transplanted onto the
// networked register service: the journal and the recovery scan live
// on the other side of a TCP connection (the round registers never
// leave the process). The journal path runs through WriteAcked
// (record-then-do with the record acknowledged before the payload) and
// the recovery scan through ReadRange.
func TestRecoverOverNetwork(t *testing.T) {
	const (
		n       = 600
		workers = 4
		killAt  = 24
	)
	srv := netmem.NewServer(netmem.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ns := fmt.Sprintf("recover-%d", time.Now().UnixNano())
	executions := make([]atomic.Int32, n+1)

	// Phase 1: the doomed incarnation, frozen with every worker parked
	// inside a payload whose journal record is already acknowledged by
	// the server.
	var clients []*netmem.NetMem
	var performed, blocked atomic.Int64
	gate := make(chan struct{})
	d1, err := New(Config{
		Shards: 1, WorkersPerShard: workers, MaxBatch: 128,
		newMem: netFactory(addr, ns, &clients), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() {
			executions[id].Add(1)
			if performed.Add(1) >= killAt {
				blocked.Add(1)
				<-gate
			}
		})
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all workers frozen mid-round", func() bool { return blocked.Load() == workers })
	preCrash := performed.Load()
	// Sever the frozen incarnation's clients: the process is "dead", its
	// lease released. (Lease-expiry takeover without a release is the
	// netmem fencing tests' and examples/failover's territory.)
	for _, c := range clients {
		c.Close()
	}

	// Phase 2: a successor over the network recovers the journal and
	// finishes the stream.
	d2, err := New(Config{
		Shards: 1, WorkersPerShard: workers, MaxBatch: 128,
		newMem: netFactory(addr, ns, nil), MaxJobs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() { executions[id].Add(1) })
	}
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	st := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	if st.Recovered != uint64(preCrash) {
		t.Errorf("recovered %d jobs over the network, want %d", st.Recovered, preCrash)
	}
	dup, lost := 0, 0
	for id := 1; id <= n; id++ {
		switch executions[id].Load() {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if dup != 0 {
		t.Errorf("at-most-once violated across the networked crash: %d duplicates", dup)
	}
	if lost != 0 {
		t.Errorf("%d jobs lost across the networked crash", lost)
	}
}

// TestDurableSync: Sync is callable on both durable and in-process
// dispatchers.
func TestDurableSync(t *testing.T) {
	d, err := New(Config{Shards: 1, WorkersPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal("in-process Sync:", err)
	}
	d.Close()

	requireMmap(t)
	dd, err := New(Config{
		Shards: 1, WorkersPerShard: 2, MaxBatch: 8,
		newMem: mmapFactory(t.TempDir()), MaxJobs: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dd.Close()
	if _, err := dd.Do(context.Background(), bare(func() {})); err != nil {
		t.Fatal(err)
	}
	dd.Flush()
	if err := dd.Sync(); err != nil {
		t.Fatal("durable Sync:", err)
	}
}

// TestGroupCommitRoundTrip: the happy path of JournalBatch > 1. With no
// crash, the end-of-round flush drains every claim buffer, so a clean
// close loses nothing: every job executes exactly once, every id is
// journaled, and a recovering incarnation skips them all.
func TestGroupCommitRoundTrip(t *testing.T) {
	requireMmap(t)
	const n = 2000
	dir := t.TempDir()
	executions := make([]atomic.Int32, n+1)
	cfg := Config{
		Shards: 1, WorkersPerShard: 4, MaxBatch: 256,
		newMem: mmapFactory(dir), MaxJobs: n, JournalBatch: 16,
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() { executions[id].Add(1) })
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d1.Flush()
	journaled := d1.shards[0].journaled.Load()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if journaled != n {
		t.Errorf("journaled %d rows, want %d", journaled, n)
	}
	for id := 1; id <= n; id++ {
		if got := executions[id].Load(); got != 1 {
			t.Fatalf("job %d executed %d times before the restart, want 1", id, got)
		}
	}

	// Recovery: the identical stream resolves entirely from the journal.
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	st2 := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if st2.Recovered != n {
		t.Errorf("recovered %d jobs, want %d", st2.Recovered, n)
	}
	for id := 1; id <= n; id++ {
		if got := executions[id].Load(); got != 1 {
			t.Errorf("job %d executed %d times across the restart, want 1", id, got)
		}
	}
}

// TestGroupCommitCrashPlan: injected (cooperative) crashes with
// JournalBatch > 1. A crashed worker's open claim buffer is flushed by
// the runtime's end-of-round hook — journal then payloads — so
// algorithm-level crashes still lose nothing: every job executes exactly
// once, rounds carry residue, never duplicates.
func TestGroupCommitCrashPlan(t *testing.T) {
	requireMmap(t)
	const n = 1500
	executions := make([]atomic.Int32, n+1)
	d, err := New(Config{
		Shards: 1, WorkersPerShard: 4, MaxBatch: 128,
		newMem: mmapFactory(t.TempDir()), MaxJobs: n, JournalBatch: 8,
		CrashPlan: func(shard, round int) []uint64 {
			if round%2 == 1 {
				return nil
			}
			return []uint64{uint64(10 + round%37), 0, uint64(25 + round%17), 0}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() { executions[id].Add(1) })
	}
	if _, err := d.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	st := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 0 {
		t.Errorf("round-level duplicates: %d", st.Duplicates)
	}
	if st.Crashes == 0 {
		t.Error("crash plan injected no crashes; the test exercised nothing")
	}
	for id := 1; id <= n; id++ {
		if got := executions[id].Load(); got != 1 {
			t.Errorf("job %d executed %d times, want 1", id, got)
		}
	}
}

// TestGroupCommitRecoverMidClaim is the widened crash window of
// JournalBatch > 1, in-process: the dispatcher freezes with workers
// parked inside deferred payloads — AFTER their claim batch's journal
// write, with sibling claims journaled but never run — and a recovering
// incarnation must produce ZERO duplicates while losing at most
// JournalBatch payloads per worker (journaled-but-unperformed jobs,
// which recovery counts performed; DESIGN.md §7's bound).
func TestGroupCommitRecoverMidClaim(t *testing.T) {
	requireMmap(t)
	const (
		n       = 2000
		workers = 4
		jbatch  = 16
		killAt  = 32
	)
	dir := t.TempDir()
	executions := make([]atomic.Int32, n+1)

	var performed, blocked atomic.Int64
	gate := make(chan struct{}) // never closed: d1's workers stay frozen
	cfg := Config{
		Shards: 1, WorkersPerShard: workers, MaxBatch: 512,
		newMem: mmapFactory(dir), MaxJobs: n, JournalBatch: jbatch,
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() {
			executions[id].Add(1)
			if performed.Add(1) >= killAt {
				blocked.Add(1)
				<-gate
			}
		})
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all workers frozen mid-claim", func() bool { return blocked.Load() == workers })
	// d1 is abandoned without Close, like a killed process. Each frozen
	// worker sits inside a deferred payload, so its claim batch is
	// journaled but its remaining payloads never ran.

	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fns {
		id := i + 1
		fns[i] = bare(func() { executions[id].Add(1) })
	}
	if _, err := d2.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d2.Flush()
	st := d2.Stats()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 0 {
		t.Errorf("round-level duplicates: %d", st.Duplicates)
	}
	dup, lost := 0, 0
	for id := 1; id <= n; id++ {
		switch executions[id].Load() {
		case 1:
		case 0:
			lost++
		default:
			dup++
		}
	}
	if dup != 0 {
		t.Errorf("at-most-once violated across the crash: %d duplicate executions", dup)
	}
	// The crash window: journaled-but-unperformed claims, at most
	// JournalBatch per worker (minus the payload each worker is frozen
	// inside, which DID run).
	if max := workers * jbatch; lost > max {
		t.Errorf("lost %d payloads across the crash, want ≤ %d (workers × JournalBatch)", lost, max)
	}
}
