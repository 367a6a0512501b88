package dispatch

import (
	"context"
	"errors"
	"fmt"
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

// mmapFactory returns a Config.NewMem mapping each shard's register
// file under dir, so successive dispatchers share durable state.
func mmapFactory(dir string) func(shard, size int) (membackend.Backend, error) {
	spec := "mmap:" + filepath.Join(dir, "regs")
	return func(shard, size int) (membackend.Backend, error) {
		return membackend.Open(membackend.ShardSpec(spec, shard), size)
	}
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
		Shards: 1, Workers: workers, MaxBatch: 512,
		NewMem: mmapFactory(dir), MaxJobs: n,
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
		Shards: 1, Workers: workers, MaxBatch: 512,
		NewMem: mmapFactory(dir), MaxJobs: n,
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

// TestRecoverRoundBoundary crashes a multi-shard dispatcher between
// rounds (abandon: loops exit at the next round boundary without
// draining) and checks the reopened dispatcher completes the stream
// exactly once.
func TestRecoverRoundBoundary(t *testing.T) {
	requireMmap(t)
	const n = 1000
	dir := t.TempDir()
	executions := make([]atomic.Int32, n+1)
	cfg := Config{
		Shards: 2, Workers: 3, MaxBatch: 64,
		NewMem: mmapFactory(dir), MaxJobs: n,
	}
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, n)
	for i := range fns {
		id := i + 1
		// The sleep throttles the drain so the abandon below reliably
		// lands while most of the stream is still queued.
		fns[i] = bare(func() { executions[id].Add(1); time.Sleep(100 * time.Microsecond) })
	}
	if _, err := d1.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "some progress", func() bool { return d1.Stats().Performed >= 100 })
	d1.abandon() // process death at the round boundary; queue not drained

	phase1 := 0
	for id := 1; id <= n; id++ {
		phase1 += int(executions[id].Load())
	}
	if phase1 >= n {
		t.Fatalf("phase 1 already drained everything (%d); crash came too late to test recovery", phase1)
	}

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

	if st.Recovered != uint64(phase1) {
		t.Errorf("recovered %d, want %d", st.Recovered, phase1)
	}
	for id := 1; id <= n; id++ {
		if c := executions[id].Load(); c != 1 {
			t.Fatalf("job %d executed %d times across the crash", id, c)
		}
	}
}

// TestRecoverAfterCleanClose reopens a drained register file: the whole
// re-submitted stream must resolve from the journal without a single
// payload run (idempotent restart).
func TestRecoverAfterCleanClose(t *testing.T) {
	requireMmap(t)
	const n = 300
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, Workers: 2, MaxBatch: 32,
		NewMem: mmapFactory(dir), MaxJobs: n,
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
		Shards: 1, Workers: 2, MaxBatch: 32, MaxJobs: 1024,
		NewMem: func(_, size int) (membackend.Backend, error) {
			if store == nil {
				store = memtest.NewLossy(size)
			}
			return store, nil
		},
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
		cfg := Config{Shards: 1, Workers: 2, MaxBatch: 8, NewMem: mmapFactory(dir), MaxJobs: tc.maxJobs}
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
		b, err := cfg.NewMem(0, jmetaCells+2*jwords)
		if err != nil {
			t.Fatal(err)
		}
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
		Shards: 1, Workers: 2, MaxBatch: 32,
		NewMem: mmapFactory(dir), MaxJobs: 100,
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
	bad.Workers = 3
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
	multi.NewMem = mmapFactory(t.TempDir()) // fresh files; shard0 above was written under Shards=1
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
		Shards: 3, Workers: 2, MaxBatch: 8,
		NewMem: mmapFactory(dir), MaxJobs: n,
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
	if cur, st := d.idCursor.v.Load(), d.Stats(); cur != n || st.Submitted != n || st.Performed != n {
		t.Fatalf("after the refusals: cursor %d, submitted %d, performed %d, want %d each", cur, st.Submitted, st.Performed, n)
	}

	// Config sanity: NewMem without MaxJobs is rejected.
	if _, err := New(Config{NewMem: mmapFactory(dir)}); err == nil {
		t.Fatal("NewMem without MaxJobs accepted")
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
		Shards: 1, Workers: 2, MaxBatch: 8,
		NewMem: mmapFactory(dir), MaxJobs: n,
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

// netFactory builds a Config.NewMem over an in-process register server,
// one namespace per shard, recording the clients so the test can sever
// them (simulating process death, which releases nothing until the
// lease is explicitly dropped or expires).
func netFactory(addr, ns string, clients *[]*netmem.NetMem) func(shard, size int) (membackend.Backend, error) {
	return func(shard, size int) (membackend.Backend, error) {
		m, err := netmem.Open(addr, size, netmem.Options{
			Namespace: fmt.Sprintf("%s.shard%d", ns, shard),
			LeaseTTL:  500 * time.Millisecond,
			OnFatal:   func(error) {}, // a dead client shows up as errors, not a test-killing panic
		})
		if err != nil {
			return nil, err
		}
		if clients != nil {
			*clients = append(*clients, m)
		}
		return m, nil
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
		Shards: 1, Workers: workers, MaxBatch: 128,
		NewMem: netFactory(addr, ns, &clients), MaxJobs: n,
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
		Shards: 1, Workers: workers, MaxBatch: 128,
		NewMem: netFactory(addr, ns, nil), MaxJobs: n,
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
	d, err := New(Config{Shards: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal("in-process Sync:", err)
	}
	d.Close()

	requireMmap(t)
	dd, err := New(Config{
		Shards: 1, Workers: 2, MaxBatch: 8,
		NewMem: mmapFactory(t.TempDir()), MaxJobs: 100,
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
		Shards: 1, Workers: 4, MaxBatch: 256,
		NewMem: mmapFactory(dir), MaxJobs: n, JournalBatch: 16,
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
		Shards: 1, Workers: 4, MaxBatch: 128,
		NewMem: mmapFactory(t.TempDir()), MaxJobs: n, JournalBatch: 8,
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
		Shards: 1, Workers: workers, MaxBatch: 512,
		NewMem: mmapFactory(dir), MaxJobs: n, JournalBatch: jbatch,
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
