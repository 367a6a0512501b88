package jobd

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/wire"
)

const testLogCells = 1 << 14

// append commits one record: a tick of one.
func (l *descLog) append(d *desc) error {
	l.stage(d)
	return l.commit()
}

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
	if d.encodedLen() != len(d.encode(nil)) {
		t.Fatalf("encodedLen %d, encode produced %d bytes", d.encodedLen(), len(d.encode(nil)))
	}
	if l.hasRoom(0, d.encodedLen()) {
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

// TestCorruptDescLogRefused: the log is input from outside the process,
// and a hole in it would shift every later descriptor onto a wrong id. A
// damaged third record — whichever part of it is damaged — is refused at
// open with an error naming the record and its cell, and the file is left
// byte for byte as it was.
func TestCorruptDescLogRefused(t *testing.T) {
	good := (&desc{tenant: "t", task: "noop", version: 1, payload: []byte("payload!")}).encode(nil)
	hdr := func(n int) int64 { return int64(recMagic<<48 | uint64(n)) }
	for _, tc := range []struct {
		name string
		hdr  int64
		body []byte
	}{
		{"wrong tag", int64(0x4a64<<48 | uint64(len(good))), good},
		{"junk in bits 32-47", hdr(len(good)) | 0x0bad<<32, good},
		{"length 0", hdr(0), good},
		{"length past the end of the log", hdr(8 * testLogCells), good},
		{"body that does not decode", hdr(len(good)), bytes.Repeat([]byte{0xff}, len(good))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, _, err := openDescLog("mmap:"+path, testLogCells)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := l.append(&desc{tenant: "t", task: "noop", version: 1}); err != nil {
					t.Fatal(err)
				}
			}
			at := l.cur
			l.b.Write(at, tc.hdr)
			for i := 0; i < len(tc.body); i += 8 {
				var cell [8]byte
				copy(cell[:], tc.body[i:])
				l.b.Write(at+1+i/8, cellVal(cell[:]))
			}
			if err := l.close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			l, recs, err := openDescLog("mmap:"+path, testLogCells)
			if err == nil {
				l.close()
				t.Fatalf("the damaged log opened, with %d records", len(recs))
			}
			for _, want := range []string{"corrupt descriptor log", "record 2", fmt.Sprintf("at cell %d", at)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal does not say %q: %v", want, err)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("the refused descriptor log was modified")
			}
		})
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

// reopenLog closes l and opens the log again, returning what the scan
// finds.
func reopenLog(t *testing.T, l *descLog, spec string) (*descLog, []job) {
	t.Helper()
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := openDescLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	return l2, recs
}

// TestTornLongThenShorterAppend: the payload cells of a long record land
// without its header (the kill), and the next incarnation appends a
// SHORTER record over them. The torn record's stale cells right behind
// the new one are client-supplied bytes; without the zero terminator the
// next scan read them as a header and refused the store (or, for a
// crafted payload, replayed a phantom descriptor that shifted every
// later id).
func TestTornLongThenShorterAppend(t *testing.T) {
	spec := "mmap:" + filepath.Join(t.TempDir(), "log")
	l, _, err := openDescLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append(&desc{tenant: "a", task: "t", version: 1}); err != nil {
		t.Fatal(err)
	}
	// The kill: an 800-byte record staged — payload cells written — and
	// never committed.
	torn := desc{tenant: "a", task: "t", version: 1, payload: bytes.Repeat([]byte{0xab}, 800)}
	l.stage(&torn)
	l, recs := reopenLog(t, l, spec)
	if len(recs) != 1 {
		t.Fatalf("scan found %d records after the torn append, want 1", len(recs))
	}
	if err := l.append(&desc{tenant: "b", task: "t", version: 1, payload: []byte("short")}); err != nil {
		t.Fatal(err)
	}
	l, recs = reopenLog(t, l, spec)
	defer l.close()
	if len(recs) != 2 || recs[1].tenant != "b" || string(recs[1].payload) != "short" {
		t.Fatalf("scan found %d records %+v, want the first and the short one", len(recs), recs)
	}
}

// TestTornTickInvisible: a tick of five whose commit header never lands
// leaves five payloads and FOUR VALID HEADERS (records 2..5) behind the
// cursor. A reopen sees none of the five; a tick of one committed over
// them reopens as exactly one more record — no phantom from the stale
// headers, whichever of them the new record's end falls short of.
func TestTornTickInvisible(t *testing.T) {
	tornRec := desc{tenant: "torn", task: "t", version: 1, payload: bytes.Repeat([]byte{0xff}, 40)}
	// The 1-record tick's payload: ending inside the torn tick's first
	// record, exactly on its second header, and inside its third record.
	for _, short := range []int{0, 45, 200} {
		spec := "mmap:" + filepath.Join(t.TempDir(), "log")
		l, _, err := openDescLog(spec, testLogCells)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.append(&desc{tenant: "a", task: "t", version: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			l.stage(&tornRec)
		}
		if hdr := uint64(l.b.Read(l.cur + recCells(tornRec.encodedLen()))); hdr>>48 != recMagic {
			t.Fatalf("the torn tick's second header is %#x: the test does not build the state it describes", hdr)
		}
		l, recs := reopenLog(t, l, spec)
		if len(recs) != 1 {
			t.Fatalf("scan found %d records, want 1: the uncommitted tick must be invisible", len(recs))
		}
		if err := l.append(&desc{tenant: "b", task: "t", version: 1, payload: make([]byte, short)}); err != nil {
			t.Fatal(err)
		}
		l, recs = reopenLog(t, l, spec)
		if len(recs) != 2 || recs[1].tenant != "b" || len(recs[1].payload) != short {
			t.Fatalf("payload %d: scan found %d records, want 2 (phantoms from the torn tick's headers?)", short, len(recs))
		}
		l.close()
	}
}

// TestReplayAcrossChunks: replay feeds the log to the dispatcher in
// chunks of the request channel's capacity; a log of several chunks
// replays onto ids 1..n and every descriptor runs exactly once.
func TestReplayAcrossChunks(t *testing.T) {
	const n = 2500
	dir := t.TempDir()
	spec := "mmap:" + filepath.Join(dir, "jobd")
	l, _, err := openDescLog(membackend.WithSuffix(spec, ".desclog"), testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.stage(&desc{tenant: "t", task: "mark", version: 1, payload: wire.AppendU64(nil, uint64(i))})
	}
	if err := l.commit(); err != nil { // one tick of 2500: one commit header
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	executed := make([]atomic.Int32, n)
	s, addr := durableServer(t, dir, &executed)
	defer s.Close()
	c := testClient(t, addr, ClientOptions{})
	waitFor(t, 20*time.Second, func() bool {
		st, err := c.Stats()
		return err == nil && st.Replayed == n && st.Reexecuted == n && st.Jobs.Pending == 0
	}, "replay of a multi-chunk log")
	for i := range executed {
		if got := executed[i].Load(); got != 1 {
			t.Fatalf("descriptor %d executed %d times", i, got)
		}
	}
	if id, err := c.Submit("t", "mark", 1, wire.AppendU64(nil, 0), SubmitOptions{}); err != nil || id != n+1 {
		t.Fatalf("first submission after the replay = (%d, %v), want id %d", id, err, n+1)
	}
}
