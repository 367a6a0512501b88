package jobd

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/memtest"
	"atmostonce/internal/netmem"
	"atmostonce/internal/obs"
	"atmostonce/internal/wire"
)

const testLogCells = 1 << 14

// append commits one record: a tick of one.
func (l *descLog) append(d *desc) error {
	l.stage(d)
	return l.commit()
}

// "lossy:NAME" is this test binary's crashable backend kind: one
// memtest.Lossy per name, the same store on every Open, so a test tears a
// write, crashes the store and opens it again.
var lossyStores sync.Map

func lossyStore(name string, size int) *memtest.Lossy {
	l, _ := lossyStores.LoadOrStore(name, memtest.NewLossy(size))
	return l.(*memtest.Lossy)
}

func init() {
	membackend.Register("lossy", func(arg string, insts []membackend.Instance, size int) ([]membackend.Backend, []int64, error) {
		bs, cell0 := make([]membackend.Backend, len(insts)), make([]int64, len(insts))
		for i, in := range insts {
			st := lossyStore(arg+in.Suffix, size)
			var err error
			if cell0[i], err = st.Stamp(in.Stamp); err != nil {
				return nil, nil, err
			}
			bs[i] = st
		}
		return bs, cell0, nil
	})
}

// openLog opens the store spec names and the descriptor log in it.
func openLog(spec string, cells int) (*descLog, []job, error) {
	bs, cell0, err := membackend.OpenEach(spec, cells, membackend.Instance{Stamp: logMagic})
	if err != nil {
		return nil, nil, err
	}
	return openDescLog(bs[0], cell0[0], spec)
}

// openLogOn opens the descriptor log in st as its opener would.
func openLogOn(st *memtest.Lossy, name string) (*descLog, []job, error) {
	cell0, err := st.Stamp(logMagic)
	if err != nil {
		return nil, nil, err
	}
	return openDescLog(st, cell0, name)
}

// lossyLog opens a fresh log over a lossy store named after the test.
func lossyLog(t *testing.T) (*descLog, *memtest.Lossy, string) {
	t.Helper()
	lossyStores.Delete(t.Name()) // -count=2 runs the name again
	l, _, err := openLog("lossy:"+t.Name(), testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	return l, lossyStore(t.Name(), testLogCells), "lossy:" + t.Name()
}

// hostLog opens a fresh log over a one-store host that dies at its at-th
// acked write, the log magic the first, landing the cells tear keeps.
func hostLog(t *testing.T, at int, tear func(i, n int) bool) (*descLog, *memtest.Host) {
	t.Helper()
	st := memtest.NewLossy(testLogCells)
	h := memtest.NewHost(at, tear, st)
	l, _, err := openLogOn(st, "the log")
	if err != nil {
		t.Fatal(err)
	}
	return l, h
}

// dieCommitting commits what l staged, on a goroutine: l's host dies in
// that write. It returns the store the death leaves, opened as a log; the
// torn commit returns at the burial, when the test ends.
func dieCommitting(t *testing.T, l *descLog, h *memtest.Host) (*descLog, []job, *memtest.Lossy) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.commit() }()
	select {
	case <-h.Dead():
	case <-time.After(10 * time.Second):
		t.Fatal("the host did not die in the commit")
	}
	t.Cleanup(func() { h.Bury(); <-done })
	st := h.Death().Stores[0]
	l, recs, err := openLogOn(st, "the log")
	if err != nil {
		t.Fatalf("the log does not reopen after the torn commit: %v", err)
	}
	return l, recs, st
}

// copyStore is a new store holding what st holds, as a reopen finds it.
func copyStore(st *memtest.Lossy) *memtest.Lossy {
	cells := make([]int64, st.Size())
	st.ReadRange(0, cells)
	cp := memtest.NewLossy(len(cells))
	cp.WriteAcked(0, cells)
	cp.Crash()
	return cp
}

// crashReopen crashes st, the store under l, and opens the log again.
func crashReopen(t *testing.T, l *descLog, st *memtest.Lossy) (*descLog, []job) {
	t.Helper()
	st.Crash()
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	l, recs, err := openLogOn(st, "the log")
	if err != nil {
		t.Fatalf("the log does not reopen: %v", err)
	}
	return l, recs
}

// lossySpec names a fresh family of lossy stores after the test, for a
// server's shards and its descriptor log.
func lossySpec(t *testing.T) string {
	lossyStores.Range(func(name, _ any) bool {
		if strings.HasPrefix(name.(string), t.Name()+".") {
			lossyStores.Delete(name) // -count=2 runs the name again
		}
		return true
	})
	return "lossy:" + t.Name()
}

// sameDesc reports whether a scanned record is the descriptor d.
func sameDesc(g *job, d *desc) bool {
	return g.tenant == d.tenant && g.task == d.task && g.version == d.version &&
		g.pri == d.pri && g.deadline == d.deadline && string(g.payload) == string(d.payload)
}

// TestDescLogRoundTrip: records appended to the log come back verbatim
// after a close/reopen, in order, and the scan stops at the first
// uncommitted header.
func TestDescLogRoundTrip(t *testing.T) {
	spec := "mmap:" + filepath.Join(t.TempDir(), "log")
	l, recs, err := openLog(spec, testLogCells)
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

	l2, got, err := openLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if len(got) != len(want) {
		t.Fatalf("reopened log has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameDesc(&got[i], &want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, &got[i], &want[i])
		}
	}
	// Appending after reopen continues from the scan cursor.
	if err := l2.append(&desc{tenant: "c", task: "t3", version: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestDescLogTornTail: a record whose body cells reached the store and
// whose header cell did not (a crash inside the commit's one write) is
// invisible to the scan and gets overwritten by the next append.
func TestDescLogTornTail(t *testing.T) {
	l, h := hostLog(t, 3, func(i, n int) bool { return i != 0 })
	if err := l.append(&desc{tenant: "a", task: "t", version: 1}); err != nil {
		t.Fatal(err)
	}
	l.stage(&desc{tenant: "torn", task: "t", version: 1, payload: []byte("gAsGarbA")})
	l2, recs, st := dieCommitting(t, l, h)
	if len(recs) != 1 {
		t.Fatalf("scan found %d records, want 1 (torn tail must be invisible)", len(recs))
	}
	if err := l2.append(&desc{tenant: "b", task: "t", version: 1}); err != nil {
		t.Fatal(err)
	}
	l2, recs = crashReopen(t, l2, st)
	defer l2.close()
	if len(recs) != 2 || recs[1].tenant != "b" {
		t.Fatalf("after the next append the log holds %d records %+v, want the first and b", len(recs), recs)
	}
}

// TestCommittedTickSurvivesHostCrash: a tick whose commit returned is in
// the store whatever else is lost — every cell of it went down in the
// acked write, none beside it.
func TestCommittedTickSurvivesHostCrash(t *testing.T) {
	l, st, spec := lossyLog(t)
	tick := []desc{
		{tenant: "a", task: "t1", version: 1, payload: bytes.Repeat([]byte{0xab}, 300)},
		{tenant: "b", task: "t2", version: 2, deadline: 99, payload: []byte("second")},
	}
	for i := range tick {
		l.stage(&tick[i])
	}
	if err := l.commit(); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	l, recs, err := openLog(spec, testLogCells)
	if err != nil {
		t.Fatalf("the committed tick does not reopen after the loss of every un-acked cell: %v", err)
	}
	defer l.close()
	if len(recs) != 2 || !sameDesc(&recs[0], &tick[0]) || !sameDesc(&recs[1], &tick[1]) {
		t.Fatalf("reopened to %d records %+v, want the tick's two", len(recs), recs)
	}
}

// TestTornTickReopensToPrefix: a crash inside a tick's one write can keep
// any subset of its cells. For every ascending prefix and every lost
// 16-cell page of a three-record tick the log reopens, without refusal,
// to exactly the records that are whole with every record before them —
// a prefix of the tick, never a hole, never a phantom — and a shorter
// tick committed next is recovered exactly: the zero cell that ends it
// rode in its write, ahead of whatever the torn tick left behind. The
// tear sees cell i of the write's n; the page it loses is placed from the
// tick's first cell, start.
func TestTornTickReopensToPrefix(t *testing.T) {
	// No cell of these records is zero, so a lost cell is a damaged record.
	tick := []desc{
		{tenant: "r0", task: "t", version: 1, deadline: -1, payload: bytes.Repeat([]byte{0xa0}, 100)},
		{tenant: "r1", task: "t", version: 1, deadline: -1, payload: bytes.Repeat([]byte{0xa1}, 60)},
		{tenant: "r2", task: "t", version: 1, deadline: -1, payload: bytes.Repeat([]byte{0xa2}, 130)},
	}
	first := desc{tenant: "first", task: "t", version: 1}
	start, total := 1+recCells(first.encodedLen()), 1
	for i := range tick {
		total += recCells(tick[i].encodedLen())
	}
	type variant struct {
		name string
		keep func(addr int) bool
	}
	var variants []variant
	for p := 0; p <= total; p++ {
		variants = append(variants, variant{fmt.Sprintf("prefix%d", p), func(addr int) bool { return addr < start+p }})
	}
	for g := start / 16; g <= (start+total-1)/16; g++ {
		variants = append(variants, variant{fmt.Sprintf("page%d", g), func(addr int) bool { return addr/16 != g }})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			// The magic, the first record, then the tick.
			l, h := hostLog(t, 3, func(i, n int) bool { return v.keep(start + i) })
			if err := l.append(&first); err != nil {
				t.Fatal(err)
			}
			if l.cur != start {
				t.Fatalf("the tick starts at cell %d, the variants assume %d", l.cur, start)
			}
			want, whole := 1, true
			for i, at := 0, start; i < len(tick); i++ {
				l.stage(&tick[i])
				for end := at + recCells(tick[i].encodedLen()); at < end; at++ {
					whole = whole && v.keep(at)
				}
				if whole {
					want++
				}
			}
			l, recs, st := dieCommitting(t, l, h)
			if len(recs) != want {
				t.Fatalf("reopened to %d records, want %d", len(recs), want)
			}
			for i := 1; i < len(recs); i++ {
				if !sameDesc(&recs[i], &tick[i-1]) {
					t.Fatalf("record %d = %+v, want the tick's record %d", i, &recs[i], i-1)
				}
			}
			short := desc{tenant: "short", task: "t", version: 1, payload: []byte("s")}
			if err := l.append(&short); err != nil {
				t.Fatal(err)
			}
			l, recs = crashReopen(t, l, st)
			defer l.close()
			if len(recs) != want+1 || !sameDesc(&recs[want], &short) {
				t.Fatalf("after a shorter tick over the torn one: %d records, want %d ending in the short one", len(recs), want+1)
			}
		})
	}
}

// TestDescLogFull: an append beyond capacity fails with errLogFull and
// hasRoom predicts it.
func TestDescLogFull(t *testing.T) {
	spec := "mmap:" + filepath.Join(t.TempDir(), "log")
	l, _, err := openLog(spec, 8)
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
	l, _, err := openLog("mmap:"+filepath.Join(t.TempDir(), "log"), testLogCells)
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
// third record with a header no commit writes, or with a body that passes
// its check and is no descriptor, is refused at open with an error naming
// the record and its cell, and the file is left byte for byte as it was.
// A well-formed header over a body that fails its check is the one thing
// a crash can leave there: the log ends at it and the next append takes
// its place.
func TestCorruptDescLogRefused(t *testing.T) {
	good := (&desc{tenant: "t", task: "noop", version: 1, payload: []byte("payload!")}).encode(nil)
	junk := bytes.Repeat([]byte{0xff}, len(good))
	hdr := func(tag uint64, at int, body []byte, n int) int64 {
		return int64(tag<<56 | uint64(crc32.Update(uint32(at), castagnoli, body))<<24 | uint64(n))
	}
	for _, tc := range []struct {
		name    string
		hdr     func(at int) int64
		body    []byte
		refused bool
	}{
		{"wrong tag", func(at int) int64 { return hdr(0x4a, at, good, len(good)) }, good, true},
		{"length 0", func(at int) int64 { return hdr(recTag, at, good, 0) }, good, true},
		{"length over the frame ceiling", func(at int) int64 { return hdr(recTag, at, good, wire.MaxFrame+1) }, good, true},
		{"length past the end of the log", func(at int) int64 { return hdr(recTag, at, good, 8*testLogCells) }, good, true},
		{"body that does not decode", func(at int) int64 { return hdr(recTag, at, junk, len(junk)) }, junk, true},
		// Bits 24-55 hold the check: junk there is a failed check at the
		// tail, which ends the log, and the next append overwrites it.
		{"junk in bits 32-47", func(at int) int64 { return hdr(recTag, at, good, len(good)) ^ 0x0bad<<32 }, good, false},
		{"a good record found at another address fails its check", func(at int) int64 { return hdr(recTag, at+1, good, len(good)) }, good, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, _, err := openLog("mmap:"+path, testLogCells)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := l.append(&desc{tenant: "t", task: "noop", version: 1}); err != nil {
					t.Fatal(err)
				}
			}
			at := l.cur
			l.b.Write(at, tc.hdr(at))
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

			l, recs, err := openLog("mmap:"+path, testLogCells)
			if !tc.refused {
				if err != nil || len(recs) != 2 || l.cur != at {
					t.Fatalf("open = %d records, error %v; want the 2 committed records and the cursor at cell %d", len(recs), err, at)
				}
				if err := l.append(&desc{tenant: "next", task: "noop", version: 1, payload: []byte("p")}); err != nil {
					t.Fatal(err)
				}
				l, recs = reopenLog(t, l, "mmap:"+path)
				defer l.close()
				if len(recs) != 3 || recs[2].tenant != "next" {
					t.Fatalf("after the next append the log holds %d records %+v, want the third to be the new one", len(recs), recs)
				}
				return
			}
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

// durableOptions is a server over a durable mmap family rooted in dir.
// The registry counts executions of task "mark" per payload index.
func durableOptions(dir string, executed *[]atomic.Int32) Options {
	reg := NewRegistry()
	reg.Register("mark", 1, func(_ context.Context, p []byte) error {
		dec := wire.Decoder{B: p}
		idx := dec.U64()
		(*executed)[idx].Add(1)
		return nil
	})
	return Options{
		Registry: reg,
		Backend:  "mmap:" + filepath.Join(dir, "jobd"),
		MaxJobs:  1 << 12,
		LogCells: testLogCells,
		Shards:   2,
		Workers:  2,
		MaxBatch: 32,
		Tenants:  map[string]TenantLimits{"t": {}},
	}
}

// durableServer builds and starts that server.
func durableServer(t *testing.T, dir string, executed *[]atomic.Int32) (*Server, string) {
	t.Helper()
	s, err := New(durableOptions(dir, executed))
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
	l, _, err := openLog(spec+".desclog", testLogCells)
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
	l, recs, err := openLog(spec+".desclog", testLogCells)
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
	l, _, err := openLog(spec+".desclog", testLogCells)
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
	l2, recs, err := openLog(spec, testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	return l2, recs
}

// TestTornLongThenShorterAppend: the body cells of a long record land
// without its header (the kill), and the next incarnation appends a
// SHORTER record over them. The torn record's stale cells right behind
// the new one are client-supplied bytes; without the zero cell the new
// record's write ends in, the next scan would read them as a header and
// refuse the store (or, for a crafted payload, replay a phantom
// descriptor that shifted every later id).
func TestTornLongThenShorterAppend(t *testing.T) {
	l, h := hostLog(t, 3, func(i, n int) bool { return i != 0 })
	if err := l.append(&desc{tenant: "a", task: "t", version: 1}); err != nil {
		t.Fatal(err)
	}
	l.stage(&desc{tenant: "a", task: "t", version: 1, payload: bytes.Repeat([]byte{0xab}, 800)})
	l, recs, st := dieCommitting(t, l, h)
	if len(recs) != 1 {
		t.Fatalf("scan found %d records after the torn append, want 1", len(recs))
	}
	if err := l.append(&desc{tenant: "b", task: "t", version: 1, payload: []byte("short")}); err != nil {
		t.Fatal(err)
	}
	l, recs = crashReopen(t, l, st)
	defer l.close()
	if len(recs) != 2 || recs[1].tenant != "b" || string(recs[1].payload) != "short" {
		t.Fatalf("scan found %d records %+v, want the first and the short one", len(recs), recs)
	}
}

// TestTornTickInvisible: a tick of five whose first header never lands
// leaves five bodies and FOUR VALID HEADERS (records 2..5, each over a
// body that passes its check at that address) behind the cursor. A reopen
// sees none of the five; a tick of one committed over them reopens as
// exactly one more record — no phantom from the stale records, whichever
// of them the new record's end falls short of.
func TestTornTickInvisible(t *testing.T) {
	tornRec := desc{tenant: "torn", task: "t", version: 1, payload: bytes.Repeat([]byte{0xff}, 40)}
	// The 1-record tick's payload: ending inside the torn tick's first
	// record, exactly on its second header, and inside its third record.
	for _, short := range []int{0, 45, 200} {
		t.Run(fmt.Sprint(short), func(t *testing.T) {
			l, h := hostLog(t, 3, func(i, n int) bool { return i != 0 })
			if err := l.append(&desc{tenant: "a", task: "t", version: 1}); err != nil {
				t.Fatal(err)
			}
			at := l.cur
			for i := 0; i < 5; i++ {
				l.stage(&tornRec)
			}
			l, recs, st := dieCommitting(t, l, h)
			if hdr := uint64(st.Read(at + recCells(tornRec.encodedLen()))); hdr>>56 != recTag {
				t.Fatalf("the torn tick's second header is %#x: the test does not build the state it describes", hdr)
			}
			if len(recs) != 1 {
				t.Fatalf("scan found %d records, want 1: the torn tick must be invisible", len(recs))
			}
			if err := l.append(&desc{tenant: "b", task: "t", version: 1, payload: make([]byte, short)}); err != nil {
				t.Fatal(err)
			}
			l, recs = crashReopen(t, l, st)
			defer l.close()
			if len(recs) != 2 || recs[1].tenant != "b" || len(recs[1].payload) != short {
				t.Fatalf("scan found %d records, want 2 (phantoms from the torn tick's records?)", len(recs))
			}
		})
	}
}

// TestTornTwiceOverStaleCells, DESIGN.md §12: two deaths in a row. A
// long tick dies torn, its first header lost and the rest of it left
// behind the cursor. The successor commits a shorter tick over those
// stale cells, and its commit dies torn: it loses the 16-cell page that
// holds the short tick's second header, a page that held the long tick's
// body. The third incarnation reopens without refusal to the committed
// record and the prefix of the short tick that landed whole: no stale
// cell is read as a header, no stale record sits between committed ones.
func TestTornTwiceOverStaleCells(t *testing.T) {
	first := desc{tenant: "first", task: "t", version: 1}
	long := []desc{
		{tenant: "long", task: "t", version: 1, payload: bytes.Repeat([]byte{0xab}, 120)},
		{tenant: "long", task: "t", version: 1, payload: bytes.Repeat([]byte{0xac}, 120)},
	}
	short := []desc{
		{tenant: "s0", task: "t", version: 1, payload: bytes.Repeat([]byte{0xb0}, 48)},
		{tenant: "s1", task: "t", version: 1, payload: bytes.Repeat([]byte{0xb1}, 40)},
	}
	start := 1 + recCells(first.encodedLen())
	second := start + recCells(short[0].encodedLen()) // the short tick's second header
	lostPage := second / 16
	if start/16 == lostPage {
		t.Fatalf("the short tick's first record shares page %d with its second header: the test does not build the state it describes", lostPage)
	}

	l, h := hostLog(t, 3, func(i, n int) bool { return i != 0 })
	if err := l.append(&first); err != nil {
		t.Fatal(err)
	}
	for i := range long {
		l.stage(&long[i])
	}
	l, recs, st := dieCommitting(t, l, h)
	if len(recs) != 1 {
		t.Fatalf("after the first death the log holds %d records, want 1", len(recs))
	}
	if c := st.Read(second); c == 0 || uint64(c)>>56 == recTag {
		t.Fatalf("cell %d holds %#x, not a stale body cell: the test does not build the state it describes", second, c)
	}

	// Which of the successor's acked writes is its commit: a dry run on a
	// copy of its store finds the write of the short tick's cells.
	commit := 1
	for i := range short {
		commit += recCells(short[i].encodedLen())
	}
	cp := copyStore(st)
	dry := memtest.NewHost(0, nil, cp)
	dl, _, err := openLogOn(cp, "the copy")
	if err != nil {
		t.Fatal(err)
	}
	for i := range short {
		dl.stage(&short[i])
	}
	if err := dl.commit(); err != nil {
		t.Fatal(err)
	}
	at := slices.Index(dry.Writes(), commit) + 1

	h = memtest.NewHost(at, func(i, n int) bool { return (start+i)/16 != lostPage }, st)
	for i := range short {
		l.stage(&short[i])
	}
	l, recs, _ = dieCommitting(t, l, h)
	defer l.close()
	if d := h.Death(); d.Addr != start {
		t.Fatalf("the second death was in a write at cell %d, want the short tick's commit at %d", d.Addr, start)
	}
	if len(recs) != 2 || !sameDesc(&recs[0], &first) || !sameDesc(&recs[1], &short[0]) {
		t.Fatalf("the third incarnation reopened to %d records %+v, want the committed one and the short tick's first", len(recs), recs)
	}
}

// TestReplayAcrossChunks: replay feeds the log to the dispatcher in
// chunks of maxTickReqs, the most a tick takes; a log of several chunks
// replays onto ids 1..n and every descriptor runs exactly once.
func TestReplayAcrossChunks(t *testing.T) {
	const n = 2500
	dir := t.TempDir()
	spec := "mmap:" + filepath.Join(dir, "jobd")
	l, _, err := openLog(spec+".desclog", testLogCells)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.stage(&desc{tenant: "t", task: "mark", version: 1, payload: wire.AppendU64(nil, uint64(i))})
	}
	if err := l.commit(); err != nil { // one tick of 2500: one acked write
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

// TestJournalWithoutDescriptorsRefused: record-then-do means every
// journaled id has a committed descriptor. A store where one does not —
// the log removed, or cut short by one committed record — is refused at
// New, naming how many ids are orphaned, the lowest, and what the log
// holds, with the journals left as they were: started anyway, the server
// would lease a new submission onto an orphaned id, resolve it Recovered
// and never run it.
func TestJournalWithoutDescriptorsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(t *testing.T, logSpec, logPath string)
		says []string
	}{
		{"log removed", func(t *testing.T, _, logPath string) {
			if err := os.Remove(logPath); err != nil {
				t.Fatal(err)
			}
		}, []string{"10 performed jobs", "lowest id 1;", "holds 0 records"}},
		{"log cut short by one record", func(t *testing.T, logSpec, _ string) {
			l, recs, err := openLog(logSpec, testLogCells)
			if err != nil {
				t.Fatal(err)
			}
			l.b.Write(l.cur-recCells(recs[len(recs)-1].encodedLen()), 0)
			if err := l.close(); err != nil {
				t.Fatal(err)
			}
		}, []string{"1 performed jobs", "lowest id 10;", "holds 9 records"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			executed := make([]atomic.Int32, 16)
			s1, addr := durableServer(t, dir, &executed)
			c := testClient(t, addr, ClientOptions{})
			for i := 0; i < 10; i++ {
				if _, err := c.Submit("t", "mark", 1, wire.AppendU64(nil, uint64(i)), SubmitOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			o := durableOptions(dir, &executed)
			tc.cut(t, o.Backend+".desclog", filepath.Join(dir, "jobd.desclog"))
			journals := func() (all []byte) {
				for shard := 0; shard < o.Shards; shard++ {
					b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("jobd.shard%d", shard)))
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, b...)
				}
				return all
			}
			before := journals()

			s2, err := New(o)
			if err == nil {
				// What the refusal prevents, shown on the way out.
				defer s2.Close()
				addr, err := s2.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				c := testClient(t, addr, ClientOptions{})
				id, _ := c.Submit("t", "mark", 1, wire.AppendU64(nil, 15), SubmitOptions{})
				s2.d.Flush()
				t.Fatalf("a journal with no descriptors behind it was accepted; the next submission was acked as id %d and ran %d times (%d resolved Recovered)",
					id, executed[15].Load(), s2.d.Stats().Recovered)
			}
			for _, want := range tc.says {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal does not say %q: %v", want, err)
				}
			}
			if !bytes.Equal(before, journals()) {
				t.Error("the refused store's journals were modified")
			}
		})
	}
}

// netmemRequests reads one series of the netmem client's request counter.
func netmemRequests(op string) uint64 {
	return obs.Default.Snapshot()[`amo_netmem_client_requests_total{op="`+op+`"}`].(uint64)
}

// TestJobdOverNet: the whole durable path over a register server — open,
// 2 000 one-record ticks of 1 KiB submissions, close, reopen and replay —
// crosses the wire as acked writes and ranged reads, the only register
// ops the protocol has: one frame per log commit, at most one per job
// for the journal, and a reopen that scans the log in windows, not
// cells. The open is a hello
// and an acquire for the shard and the same for the log, whose hellos
// stamp what they create: no acked write. It logs what a tick and the
// reopen cost on this machine's loopback.
func TestJobdOverNet(t *testing.T) {
	srv := netmem.NewServer(netmem.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) // after the servers' own cleanups
	const n = 2000
	o := Options{
		Backend: "net:" + addr + "/jobd", MaxJobs: n, LogCells: 1 << 19, Shards: 1,
		Tenants: map[string]TenantLimits{"t": {}},
	}
	acked := netmemRequests("write_acked")
	hellos, acquires := netmemRequests("hello"), netmemRequests("acquire")

	s := steppedServer(t, o)
	if h, a, w := netmemRequests("hello")-hellos, netmemRequests("acquire")-acquires, netmemRequests("write_acked")-acked; h != 2 || a != 2 || w != 0 {
		t.Errorf("the open sent %d hellos, %d acquires and %d acked writes; want 2, 2 and 0: the shard's and the log's hello and acquire", h, a, w)
	}
	c := fakeConn(s)
	payload := bytes.Repeat([]byte{0x5a}, 1024)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.tick([]coreReq{submitReq(s, c, uint32(i), "t", payload)}, nil)
	}
	ticked := time.Since(t0)
	s.settle()
	cells := s.log.cur
	// One frame per tick for the log, at most one per job for the journal
	// (JournalBatch 1).
	if got := netmemRequests("write_acked") - acked; got < n || got > 2*n {
		t.Errorf("%d acked-write requests for %d one-job ticks, want one per tick plus at most one per job", got, n)
	}
	s.shut(t)

	ranged := netmemRequests("read_range")
	t0 = time.Now()
	s2 := steppedServer(t, o)
	reopened := time.Since(t0)
	s2.tick(s2.take())
	if st := s2.d.Stats(); s2.replayed != n || st.Recovered != n || s2.reexecuted != 0 || st.Pending != 0 {
		t.Fatalf("reopen: replayed %d, recovered %d, re-executed %d, pending %d; want %d, %d, 0, 0", s2.replayed, st.Recovered, s2.reexecuted, st.Pending, n, n)
	}
	// The log's windows, then the shard's two rows: the hellos report both
	// stamps.
	if got, most := netmemRequests("read_range")-ranged, uint64((cells+membackend.WindowCells-1)/membackend.WindowCells+2); got > most {
		t.Errorf("the reopen spent %d ranged reads on a log of %d cells, want ≤ %d", got, cells, most)
	}
	t.Logf("%d one-KiB records over net: loopback: %v per tick, reopen and replay %v (log of %d cells)",
		n, ticked/n, reopened, cells)
}
