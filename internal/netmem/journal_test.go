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

// TestJournalWrite: the opJournal round trip. A JournalWrite lands the
// id in the cell like an acked write AND the server's tracer witnesses
// the job id as a journaled event with the server-side shard marker —
// the anchor record cross-process stitching keys on.
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
	jw, ok := b.(membackend.JournalWriter)
	if !ok {
		t.Fatal("net backend does not implement JournalWriter")
	}

	for i, id := range []uint64{42, 43, 44} {
		if err := jw.JournalWrite(10+i, id); err != nil {
			t.Fatalf("JournalWrite(%d, %d): %v", 10+i, id, err)
		}
	}
	for i, id := range []int64{42, 43, 44} {
		if got := b.Read(10 + i); got != id {
			t.Fatalf("cell %d = %d, want %d", 10+i, got, id)
		}
	}

	doc := obs.NewTracezDoc(tr)
	if len(doc.Jobs) != 3 {
		t.Fatalf("server tracer saw %d jobs, want 3: %+v", len(doc.Jobs), doc.Jobs)
	}
	for _, j := range doc.Jobs {
		if j.ID < 42 || j.ID > 44 {
			t.Fatalf("server traced unexpected job %d", j.ID)
		}
		if len(j.Events) != 1 || j.Events[0].Event != "journaled" || j.Events[0].Shard != -1 {
			t.Fatalf("job %d server events = %+v, want one journaled at shard -1", j.ID, j.Events)
		}
		if j.Events[0].Inc != doc.Incarnation || j.Events[0].TS == 0 {
			t.Fatalf("job %d journal event missing stitching fields: %+v", j.ID, j.Events[0])
		}
	}

	// Out-of-bounds journal writes are per-op errors, not client deaths:
	// the connection survives for the next operation.
	if err := jw.JournalWrite(4096, 99); err == nil || !strings.Contains(err.Error(), "journal addr") {
		t.Fatalf("out-of-bounds JournalWrite err = %v", err)
	}
	if err := jw.JournalWrite(11, 52); err != nil {
		t.Fatalf("journal write after bad-addr error: %v", err)
	}
	if got := b.Read(11); got != 52 {
		t.Fatalf("cell 11 = %d after rewrite, want 52", got)
	}
}

// TestJournalWriteBatch: the opJournalBatch round trip. One awaited op
// lands k ids in k contiguous cells, the server's tracer witnesses
// every id, and a bad batch (out of bounds) is a per-op error that
// leaves the connection alive.
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
	bj, ok := b.(membackend.BatchJournalWriter)
	if !ok {
		t.Fatal("net backend does not implement BatchJournalWriter")
	}

	ids := []uint64{71, 72, 73, 74, 75}
	if err := bj.JournalWriteBatch(20, ids); err != nil {
		t.Fatalf("JournalWriteBatch: %v", err)
	}
	for i, id := range ids {
		if got := b.Read(20 + i); got != int64(id) {
			t.Fatalf("cell %d = %d, want %d", 20+i, got, id)
		}
	}
	if got := b.Read(20 + len(ids)); got != 0 {
		t.Fatalf("cell after batch clobbered: %d", got)
	}
	// A single-element batch is just a journal write.
	if err := bj.JournalWriteBatch(5, []uint64{99}); err != nil {
		t.Fatalf("single-element batch: %v", err)
	}
	if got := b.Read(5); got != 99 {
		t.Fatalf("cell 5 = %d, want 99", got)
	}
	// An empty batch is a no-op, not a wire error.
	if err := bj.JournalWriteBatch(5, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	doc := obs.NewTracezDoc(tr)
	if len(doc.Jobs) != len(ids)+1 {
		t.Fatalf("server tracer saw %d jobs, want %d: %+v", len(doc.Jobs), len(ids)+1, doc.Jobs)
	}
	for _, j := range doc.Jobs {
		if len(j.Events) != 1 || j.Events[0].Event != "journaled" || j.Events[0].Shard != -1 {
			t.Fatalf("job %d server events = %+v, want one journaled at shard -1", j.ID, j.Events)
		}
	}

	// A batch overrunning the register file is a per-op error; the
	// connection survives for the next operation.
	if err := bj.JournalWriteBatch(60, []uint64{1, 2, 3, 4, 5, 6}); err == nil ||
		!strings.Contains(err.Error(), "journal batch") {
		t.Fatalf("out-of-bounds batch err = %v", err)
	}
	if err := bj.JournalWriteBatch(30, []uint64{7}); err != nil {
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

	if err := c1.JournalWriteBatch(10, []uint64{101, 102, 103, 104}); !errors.Is(err, ErrFenced) {
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
// journal writes (the capability degrades to an acked write).
func TestJournalWriteNoTracer(t *testing.T) {
	addr := testServerAddr(t)
	b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, uniqueNS()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	jw := b.(membackend.JournalWriter)
	if err := jw.JournalWrite(3, 7); err != nil {
		t.Fatal(err)
	}
	if got := b.Read(3); got != 7 {
		t.Fatalf("cell 3 = %d, want 7", got)
	}
}

// TestJournalBatchRoundTripAllocs gates the one RPC a durable dispatcher
// still sends per claim: a JournalWriteBatch round trip — client encode,
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

	ids := make([]uint64, 16)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	row := 0
	call := func() {
		if err := m.JournalWriteBatch(16*(row%rows), ids); err != nil {
			t.Fatal(err)
		}
		row++
	}
	for i := 0; i < 64; i++ {
		call() // warm the op pool, both scratch buffers and the reply buffer
	}
	if avg := testing.AllocsPerRun(2000, call); avg > 0.2 {
		t.Fatalf("JournalWriteBatch of %d ids allocates %.2f per round trip, want ≤ 0.2", len(ids), avg)
	}
}
