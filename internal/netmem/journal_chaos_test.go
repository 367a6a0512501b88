package netmem

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestJournalBatchReconnectResume: the journal write through forced clean
// drops. A batch whose ack never arrived is replayed after the redial
// and must land whole; reads issued across a drop block through the
// reconnect; the fencing epoch must not move (resume is renew-based, so
// a replayed batch is the SAME writer finishing its claim, not a new
// epoch re-journaling).
func TestJournalBatchReconnectResume(t *testing.T) {
	proxy := chaosServer(t, ChaosOptions{Seed: 7})
	var fatal atomic.Value
	c, err := Open(proxy.Addr(), 256, Options{
		Namespace:      uniqueNS(),
		LeaseTTL:       500 * time.Millisecond,
		RedialAttempts: 20,
		OnFatal:        collectFatal(&fatal),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e0 := c.Epoch()

	ids := func(base int64, n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = base + int64(i)
		}
		return v
	}
	if err := c.WriteAcked(0, ids(1000, 16)); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	proxy.DropAll() // the next batch crosses a dead connection: resend after redial
	if err := c.WriteAcked(16, ids(2000, 16)); err != nil {
		t.Fatalf("batch across a drop: %v", err)
	}
	proxy.DropAll() // and the verification reads block through another redial
	dst := make([]int64, 32)
	if err := c.ReadRange(0, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if dst[i] != int64(1000+i) {
			t.Fatalf("cell %d = %d, want %d", i, dst[i], 1000+i)
		}
		if dst[16+i] != int64(2000+i) {
			t.Fatalf("cell %d = %d, want %d", 16+i, dst[16+i], 2000+i)
		}
	}
	if got := c.Epoch(); got != e0 {
		t.Fatalf("epoch moved across reconnects: %d, want %d", got, e0)
	}
	if err, _ := fatal.Load().(error); err != nil {
		t.Fatalf("client died: %v", err)
	}
	if proxy.Drops() < 2 {
		t.Fatalf("proxy injected %d drops, want ≥ 2", proxy.Drops())
	}
}

// TestJournalBatchMidFrameDrops: the journal write under the hardest cut —
// the proxy severs connections mid-frame (a strict prefix of the batch
// frame reaches the server), repeatedly, across a sustained stream of
// batches. The contract under test: an ACKED batch is fully applied (a
// truncated frame never becomes a partial batch), and every batch
// eventually lands whole because unacked ops are resent after the
// redial.
func TestJournalBatchMidFrameDrops(t *testing.T) {
	proxy := chaosServer(t, ChaosOptions{
		Seed:          13,
		DropEvery:     2 << 10, // a sever every ~2KB: several per pass
		PartialWrites: true,    // cut INSIDE frames, not at boundaries
	})
	const (
		cells    = 512
		batchLen = 16
		batches  = cells / batchLen
	)
	passes := 6
	if testing.Short() {
		passes = 2
	}
	var fatal atomic.Value
	c, err := Open(proxy.Addr(), cells, Options{
		Namespace:      uniqueNS(),
		LeaseTTL:       500 * time.Millisecond,
		RedialAttempts: 200,
		RedialBackoff:  2 * time.Millisecond,
		OnFatal:        collectFatal(&fatal),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dst := make([]int64, batchLen)
	for p := 1; p <= passes; p++ {
		for bi := 0; bi < batches; bi++ {
			addr := bi * batchLen
			ids := make([]int64, batchLen)
			for i := range ids {
				ids[i] = int64(uint64(p)<<32 | uint64(addr+i))
			}
			if err := c.WriteAcked(addr, ids); err != nil {
				t.Fatalf("pass %d batch %d: %v", p, bi, err)
			}
			// Acked ⇒ fully applied: read the batch straight back. A
			// torn frame that half-landed would show a mix of passes.
			if err := c.ReadRange(addr, dst); err != nil {
				t.Fatalf("pass %d batch %d readback: %v", p, bi, err)
			}
			for i, got := range dst {
				if got != int64(ids[i]) {
					t.Fatalf("pass %d: cell %d = %#x, want %#x (torn batch?)", p, addr+i, got, ids[i])
				}
			}
		}
	}

	// Final audit: the whole register file carries the last pass.
	all := make([]int64, cells)
	if err := c.ReadRange(0, all); err != nil {
		t.Fatal(err)
	}
	for a, got := range all {
		want := int64(uint64(passes)<<32 | uint64(a))
		if got != want {
			t.Fatalf("audit: cell %d = %#x, want %#x", a, got, want)
		}
	}
	if err, _ := fatal.Load().(error); err != nil {
		t.Fatalf("client died: %v", err)
	}
	if proxy.Drops() == 0 {
		t.Fatal("no mid-frame drops were injected; the chaos schedule is not biting")
	}
	t.Logf("journal batches survived %d mid-frame drops", proxy.Drops())
}
