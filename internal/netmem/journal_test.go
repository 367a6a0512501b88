package netmem

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
)

// TestJournalWrite: the scalar case of the one acked write, with the
// values a dispatcher journal row holds — bitmap words, the sign bit
// included. A batch of one lands in its cell, and an out-of-bounds write
// is a per-op error, not a client death.
func TestJournalWrite(t *testing.T) {
	addr := testServerAddr(t)
	b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, uniqueNS()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	words := []int64{1 << 42, -1 << 63, -1}
	for i, w := range words {
		if err := b.WriteAcked(10+i, []int64{w}); err != nil {
			t.Fatalf("WriteAcked(%d, %#x): %v", 10+i, uint64(w), err)
		}
	}
	for i, w := range words {
		if got := b.Read(10 + i); got != w {
			t.Fatalf("cell %d = %#x, want %#x", 10+i, uint64(got), uint64(w))
		}
	}

	// The connection survives a bad address for the next operation.
	if err := b.WriteAcked(4096, []int64{99}); err == nil || !strings.Contains(err.Error(), "acked write addr") {
		t.Fatalf("out-of-bounds WriteAcked err = %v", err)
	}
	if err := b.WriteAcked(11, []int64{52}); err != nil {
		t.Fatalf("acked write after bad-addr error: %v", err)
	}
	if got := b.Read(11); got != 52 {
		t.Fatalf("cell 11 = %d after rewrite, want 52", got)
	}
}

// TestJournalWriteBatch: the batch case. One awaited op lands k values
// in k contiguous cells and nowhere else, an empty batch is a no-op, and
// a batch overrunning the register file is a per-op error that leaves
// the connection alive.
func TestJournalWriteBatch(t *testing.T) {
	addr := testServerAddr(t)
	b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, uniqueNS()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	words := []int64{71, -72, 1 << 62, 0, 75}
	if err := b.WriteAcked(20, words); err != nil {
		t.Fatalf("WriteAcked batch: %v", err)
	}
	for i, w := range words {
		if got := b.Read(20 + i); got != w {
			t.Fatalf("cell %d = %d, want %d", 20+i, got, w)
		}
	}
	if got := b.Read(20 + len(words)); got != 0 {
		t.Fatalf("cell after batch clobbered: %d", got)
	}
	if err := b.WriteAcked(5, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	if err := b.WriteAcked(60, []int64{1, 2, 3, 4, 5, 6}); err == nil ||
		!strings.Contains(err.Error(), "acked write addr") {
		t.Fatalf("out-of-bounds batch err = %v", err)
	}
	if err := b.WriteAcked(30, []int64{7}); err != nil {
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

	if err := c1.WriteAcked(10, []int64{101, 102, 103, 104}); !errors.Is(err, ErrFenced) {
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
		if err := m.WriteAcked(16*(row%rows), ids); err != nil {
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
