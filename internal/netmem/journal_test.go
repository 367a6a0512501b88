package netmem

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/obs"
)

// serverJournaled returns the ids the server's tracer witnessed, failing
// unless each carries exactly one journaled event with the server-side
// shard marker and the stitching fields.
func serverJournaled(t *testing.T, tr *obs.Tracer) map[uint64]bool {
	t.Helper()
	doc := obs.NewTracezDoc(tr)
	seen := make(map[uint64]bool)
	for _, j := range doc.Jobs {
		if len(j.Events) != 1 || j.Events[0].Event != "journaled" || j.Events[0].Shard != -1 {
			t.Fatalf("job %d server events = %+v, want one journaled at shard -1", j.ID, j.Events)
		}
		if j.Events[0].Inc != doc.Incarnation || j.Events[0].TS == 0 {
			t.Fatalf("job %d journal event missing stitching fields: %+v", j.ID, j.Events[0])
		}
		seen[j.ID] = true
	}
	return seen
}

// TestJournalWrite: the scalar case of the one acked write. A batch of
// one with journal=true lands the id in the cell AND the server's tracer
// witnesses the job id as a journaled event with the server-side shard
// marker — the anchor record cross-process stitching keys on. The
// witnessing is by flag, not by op: the same write with journal=false
// (a desclog-shaped header value) lands and leaves no trace.
func TestJournalWrite(t *testing.T) {
	tr := obs.NewTracer(1, 64)
	srv := NewServer(ServerOptions{Tracer: tr})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, uniqueNS()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i, id := range []int64{42, 43, 44} {
		if err := b.WriteAcked(10+i, []int64{id}, true); err != nil {
			t.Fatalf("WriteAcked(%d, %d, journal): %v", 10+i, id, err)
		}
	}
	for i, id := range []int64{42, 43, 44} {
		if got := b.Read(10 + i); got != id {
			t.Fatalf("cell %d = %d, want %d", 10+i, got, id)
		}
	}
	// jobd's descriptor log commits a record with this shape of value:
	// recMagic<<48 | byteLen. It is not a job id and must not be traced.
	const hdr = int64(0x6a44<<48 | 1024)
	if err := b.WriteAcked(20, []int64{hdr}, false); err != nil {
		t.Fatalf("non-journal WriteAcked: %v", err)
	}
	if got := b.Read(20); got != hdr {
		t.Fatalf("cell 20 = %#x, want %#x", got, hdr)
	}
	seen := serverJournaled(t, tr)
	if len(seen) != 3 || !seen[42] || !seen[43] || !seen[44] {
		t.Fatalf("server tracer saw %v, want exactly jobs 42, 43, 44", seen)
	}

	// Out-of-bounds acked writes are per-op errors, not client deaths:
	// the connection survives for the next operation.
	if err := b.WriteAcked(4096, []int64{99}, true); err == nil || !strings.Contains(err.Error(), "acked write addr") {
		t.Fatalf("out-of-bounds WriteAcked err = %v", err)
	}
	if err := b.WriteAcked(11, []int64{52}, true); err != nil {
		t.Fatalf("journal write after bad-addr error: %v", err)
	}
	if got := b.Read(11); got != 52 {
		t.Fatalf("cell 11 = %d after rewrite, want 52", got)
	}
}

// TestJournalWriteBatch: the batch case. One awaited op lands k ids in
// k contiguous cells, a journal=true batch of k ids produces exactly k
// server-side journaled events and a journal=false batch none, and a
// bad batch (out of bounds) is a per-op error that leaves the
// connection alive.
func TestJournalWriteBatch(t *testing.T) {
	tr := obs.NewTracer(1, 64)
	srv := NewServer(ServerOptions{Tracer: tr})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, uniqueNS()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ids := []int64{71, 72, 73, 74, 75}
	if err := b.WriteAcked(20, ids, true); err != nil {
		t.Fatalf("WriteAcked batch: %v", err)
	}
	for i, id := range ids {
		if got := b.Read(20 + i); got != id {
			t.Fatalf("cell %d = %d, want %d", 20+i, got, id)
		}
	}
	if got := b.Read(20 + len(ids)); got != 0 {
		t.Fatalf("cell after batch clobbered: %d", got)
	}
	// A single-element batch is just a journal write.
	if err := b.WriteAcked(5, []int64{99}, true); err != nil {
		t.Fatalf("single-element batch: %v", err)
	}
	if got := b.Read(5); got != 99 {
		t.Fatalf("cell 5 = %d, want 99", got)
	}
	// An empty batch is a no-op, not a wire error.
	if err := b.WriteAcked(5, nil, true); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// The same batch shape without the flag lands and is not witnessed.
	if err := b.WriteAcked(40, []int64{81, 82, 83}, false); err != nil {
		t.Fatalf("non-journal batch: %v", err)
	}
	if got := b.Read(42); got != 83 {
		t.Fatalf("cell 42 = %d, want 83", got)
	}

	if seen := serverJournaled(t, tr); len(seen) != len(ids)+1 || seen[81] || !seen[99] {
		t.Fatalf("server tracer saw %v, want exactly %v and 99", seen, ids)
	}

	// A batch overrunning the register file is a per-op error; the
	// connection survives for the next operation.
	if err := b.WriteAcked(60, []int64{1, 2, 3, 4, 5, 6}, true); err == nil ||
		!strings.Contains(err.Error(), "acked write addr") {
		t.Fatalf("out-of-bounds batch err = %v", err)
	}
	if err := b.WriteAcked(30, []int64{7}, true); err != nil {
		t.Fatalf("batch after bad-addr error: %v", err)
	}
	if got := b.Read(30); got != 7 {
		t.Fatalf("cell 30 = %d after recovery write, want 7", got)
	}
}

// TestJournalWriteBatchFencedNoPrefix: the atomicity half of the batch
// contract. A fenced writer's batch must be rejected as a whole — the
// successor must never observe a prefix of the incumbent's claim in the
// registers. This is the two-writer test the memtest BatchWrite subtest
// defers to the net backend (the only backend with admission control).
func TestJournalWriteBatchFencedNoPrefix(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	var fatal1 atomic.Value
	c1, err := Open(addr, 64, Options{
		Namespace: ns,
		LeaseTTL:  300 * time.Millisecond,
		OnFatal:   collectFatal(&fatal1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Incumbent stalls; a waiting successor fences it.
	c1.stopRenew()
	c2, err := Open(addr, 64, Options{Namespace: ns, LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if err := c1.WriteAcked(10, []int64{101, 102, 103, 104}, true); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced batch err = %v, want ErrFenced", err)
	}
	// No prefix: every cell of the rejected batch is untouched.
	for i := 0; i < 4; i++ {
		if got := c2.Read(10 + i); got != 0 {
			t.Fatalf("fenced batch left a prefix: cell %d = %d", 10+i, got)
		}
	}
	c1.Close()
}

// TestJournalWriteNoTracer: a server without a tracer still applies
// journal writes (the flag degrades to nothing).
func TestJournalWriteNoTracer(t *testing.T) {
	addr := testServerAddr(t)
	b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, uniqueNS()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.WriteAcked(3, []int64{7}, true); err != nil {
		t.Fatal(err)
	}
	if got := b.Read(3); got != 7 {
		t.Fatalf("cell 3 = %d, want 7", got)
	}
}

// TestJournalBatchRoundTripAllocs gates the one RPC a durable dispatcher
// still sends per claim: a journal WriteAcked round trip — client encode,
// pooled op and wake-up, server decode, fenced apply, ack, reader
// delivery — allocates nothing at either end once warm. AllocsPerRun
// counts the whole process, so the in-process server's side is in the
// figure.
func TestJournalBatchRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const rows = 1 << 12
	m, err := Open(addr, 16*rows, Options{Namespace: uniqueNS()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ids := make([]int64, 16)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	row := 0
	call := func() {
		if err := m.WriteAcked(16*(row%rows), ids, true); err != nil {
			t.Fatal(err)
		}
		row++
	}
	for i := 0; i < 64; i++ {
		call() // warm the op pool, both scratch buffers and the reply buffer
	}
	if avg := testing.AllocsPerRun(2000, call); avg > 0.2 {
		t.Fatalf("journal WriteAcked of %d ids allocates %.2f per round trip, want ≤ 0.2", len(ids), avg)
	}
}
