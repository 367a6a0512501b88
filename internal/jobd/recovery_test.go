package jobd

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/wire"
)

const testLogCells = 1 << 14

// TestDescLogRoundTrip: records appended to the log come back verbatim
// after a close/reopen, in order, and the scan stops at the first
// uncommitted header.
func TestDescLogRoundTrip(t *testing.T) {
	spec := "mmap:" + filepath.Join(t.TempDir(), "log")
	l, recs, err := openDescLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	want := []desc{
		{tenant: "a", task: "t1", version: 1, pri: 0, deadline: 0, payload: []byte("hello")},
		{tenant: "b", task: "t2", version: 7, pri: 1, deadline: 12345, payload: nil},
		{tenant: "a", task: "t1", version: 1, pri: -1, deadline: -1, payload: make([]byte, 100)},
	}
	for i := range want {
		if err := l.append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := openDescLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if len(got) != len(want) {
		t.Fatalf("reopened log has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if g.tenant != w.tenant || g.task != w.task || g.version != w.version ||
			g.pri != w.pri || g.deadline != w.deadline || string(g.payload) != string(w.payload) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
	// Appending after reopen continues from the scan cursor.
	if err := l2.append(&desc{tenant: "c", task: "t3", version: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestDescLogTornTail: payload cells written without their header cell
// (the crash window inside append) are invisible to the scan and get
// overwritten by the next append.
func TestDescLogTornTail(t *testing.T) {
	spec := "mmap:" + filepath.Join(t.TempDir(), "log")
	l, _, err := openDescLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append(&desc{tenant: "a", task: "t", version: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: garbage payload cells at the cursor, no
	// header committed.
	l.b.Write(l.cur+1, 0x6741734761726241)
	l.b.Write(l.cur+2, 0x6741734761726241)
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := openDescLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if len(recs) != 1 {
		t.Fatalf("scan found %d records, want 1 (torn tail must be invisible)", len(recs))
	}
	if err := l2.append(&desc{tenant: "b", task: "t", version: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestDescLogFull: an append beyond capacity fails with errLogFull and
// hasRoom predicts it.
func TestDescLogFull(t *testing.T) {
	spec := "mmap:" + filepath.Join(t.TempDir(), "log")
	l, _, err := openDescLog(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	d := desc{tenant: "t", task: "x", version: 1, payload: make([]byte, 64)}
	if l.hasRoom(21 + 1 + 1 + 64) {
		t.Fatal("hasRoom claims a 64-byte payload fits in 8 cells")
	}
	if err := l.append(&d); err != errLogFull {
		t.Fatalf("append = %v, want errLogFull", err)
	}
}

// TestDescLogAppendAllocs: an append allocates nothing once the encode
// scratch is warm. The header cell goes to the backend as a one-cell
// slice through an interface; it is the log's own scratch field, not a
// literal that would escape once per admitted job.
func TestDescLogAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	l, _, err := openDescLog("mmap:"+filepath.Join(t.TempDir(), "log"), testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	d := desc{tenant: "a", task: "t1", version: 1, payload: make([]byte, 100)}
	if avg := testing.AllocsPerRun(100, func() {
		if err := l.append(&d); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("append allocates %.2f times per record, want 0", avg)
	}
}

// durableServer builds a server over a durable mmap family rooted in
// dir. The registry counts executions of task "mark" per payload index.
func durableServer(t *testing.T, dir string, executed *[]atomic.Int32) (*Server, string) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("mark", 1, func(_ context.Context, p []byte) error {
		dec := wire.Decoder{B: p}
		idx := dec.U64()
		(*executed)[idx].Add(1)
		return nil
	})
	s, err := New(Options{
		Registry: reg,
		Backend:  "mmap:" + filepath.Join(dir, "jobd"),
		MaxJobs:  1 << 12,
		LogCells: testLogCells,
		Shards:   2,
		Workers:  2,
		MaxBatch: 32,
		Tenants:  map[string]TenantLimits{"t": {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, addr
}

// TestRecoveryDedupe: a cleanly closed server performed everything it
// admitted; reopening replays every descriptor and ALL of them resolve
// Recovered — nothing runs twice.
func TestRecoveryDedupe(t *testing.T) {
	dir := t.TempDir()
	executed := make([]atomic.Int32, 16)
	s1, addr := durableServer(t, dir, &executed)
	c := testClient(t, addr, ClientOptions{})
	ids := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		var p [8]byte
		putCell(p[:], int64(i))
		id, err := c.Submit("t", "mark", 1, p[:], SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = true
	}
	c.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if n := executed[i].Load(); n != 1 {
			t.Fatalf("job %d executed %d times before restart", i, n)
		}
	}

	s2, addr2 := durableServer(t, dir, &executed)
	defer s2.Close()
	c2 := testClient(t, addr2, ClientOptions{})
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 10 || st.Reexecuted != 0 {
		t.Fatalf("replayed=%d reexecuted=%d, want 10/0", st.Replayed, st.Reexecuted)
	}
	if st.Jobs.Recovered != 10 || st.Jobs.Duplicates != 0 {
		t.Fatalf("jobs = %+v, want 10 recovered, 0 duplicates", st.Jobs)
	}
	for i := 0; i < 10; i++ {
		if n := executed[i].Load(); n != 1 {
			t.Fatalf("job %d executed %d times after replay (duplicate!)", i, n)
		}
	}
	// The id stream continues past the replayed block: a fresh
	// submission must not collide with any replayed id.
	id, err := c2.Submit("t", "mark", 1, func() []byte { var p [8]byte; putCell(p[:], 11); return p[:] }(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ids[id] {
		t.Fatalf("post-replay id %d collides with a replayed id", id)
	}
}

// TestRecoveryReexecute: descriptors that made it into the log but
// never into a shard journal — the process died after admission,
// before execution — RE-RUN on reopen, exactly once each. The state is
// constructed exactly as the crash leaves it: a populated descriptor
// log next to empty shard journals.
func TestRecoveryReexecute(t *testing.T) {
	dir := t.TempDir()
	spec := "mmap:" + filepath.Join(dir, "jobd")
	l, _, err := openDescLog(membackend.WithSuffix(spec, ".desclog"), testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var p [8]byte
		putCell(p[:], int64(i))
		if err := l.append(&desc{tenant: "t", task: "mark", version: 1, payload: p[:]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	executed := make([]atomic.Int32, 16)
	s, addr := durableServer(t, dir, &executed)
	defer s.Close()
	c := testClient(t, addr, ClientOptions{})
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 5 {
		t.Fatalf("replayed=%d, want 5", st.Replayed)
	}
	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < 5; i++ {
			if executed[i].Load() != 1 {
				return false
			}
		}
		return true
	}, "replayed descriptors re-executing")
	waitFor(t, 10*time.Second, func() bool {
		st, err := c.Stats()
		return err == nil && st.Reexecuted == 5
	}, "reexecuted counter")
	for i := 0; i < 5; i++ {
		if n := executed[i].Load(); n != 1 {
			t.Fatalf("descriptor %d executed %d times", i, n)
		}
	}
}

// TestRecoveryMixed is the heart of the contract: a log where a prefix
// was performed (journaled by incarnation 1) and a suffix was admitted
// but never run. Reopening dedupes the prefix and re-executes the
// suffix — zero duplicates, zero losses.
func TestRecoveryMixed(t *testing.T) {
	dir := t.TempDir()
	executed := make([]atomic.Int32, 16)
	s1, addr := durableServer(t, dir, &executed)
	c := testClient(t, addr, ClientOptions{})
	for i := 0; i < 3; i++ {
		var p [8]byte
		putCell(p[:], int64(i))
		if _, err := c.Submit("t", "mark", 1, p[:], SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := s1.Close(); err != nil { // performs and journals jobs 0..2
		t.Fatal(err)
	}

	// Simulate the crash window: two more descriptors reach the log but
	// the process dies before they are submitted (no journal entries).
	spec := "mmap:" + filepath.Join(dir, "jobd")
	l, recs, err := openDescLog(membackend.WithSuffix(spec, ".desclog"), testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("log has %d records, want 3", len(recs))
	}
	for i := 3; i < 5; i++ {
		var p [8]byte
		putCell(p[:], int64(i))
		if err := l.append(&desc{tenant: "t", task: "mark", version: 1, payload: p[:]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	s2, addr2 := durableServer(t, dir, &executed)
	defer s2.Close()
	c2 := testClient(t, addr2, ClientOptions{})
	waitFor(t, 10*time.Second, func() bool {
		st, err := c2.Stats()
		return err == nil && st.Jobs.Pending == 0 && st.Replayed == 5
	}, "replay settling")
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Recovered != 3 {
		t.Fatalf("recovered=%d, want 3", st.Jobs.Recovered)
	}
	waitFor(t, 10*time.Second, func() bool {
		st, err := c2.Stats()
		return err == nil && st.Reexecuted == 2
	}, "reexecuted counter")
	for i := 0; i < 5; i++ {
		if n := executed[i].Load(); n != 1 {
			t.Fatalf("job %d executed %d times across incarnations, want exactly 1", i, n)
		}
	}
	if st.Jobs.Duplicates != 0 {
		t.Fatalf("duplicates: %d", st.Jobs.Duplicates)
	}
}

// TestReplayUnregisteredTask: a logged descriptor whose task has
// vanished from the registry still replays (the id stream must line
// up) but resolves as performed-with-error instead of running.
func TestReplayUnregisteredTask(t *testing.T) {
	dir := t.TempDir()
	spec := "mmap:" + filepath.Join(dir, "jobd")
	l, _, err := openDescLog(membackend.WithSuffix(spec, ".desclog"), testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append(&desc{tenant: "t", task: "gone", version: 9, payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	executed := make([]atomic.Int32, 1)
	s, addr := durableServer(t, dir, &executed)
	defer s.Close()
	c := testClient(t, addr, ClientOptions{})
	waitFor(t, 10*time.Second, func() bool {
		st, err := c.Stats()
		return err == nil && st.Replayed == 1 && st.Jobs.Performed == 1 && st.Jobs.Pending == 0
	}, "unregistered replay resolving")
	if executed[0].Load() != 0 {
		t.Fatal("the placeholder for an unregistered task must not touch real task state")
	}
}
