package netmem

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosServer starts an in-process server plus a ChaosProxy in front of
// it. Chaos tests always use the in-process server: the faults live in
// the proxy, and pointing them at a shared external server would leak
// severed leases into other tests' timing.
func chaosServer(t *testing.T, opts ChaosOptions) *ChaosProxy {
	t.Helper()
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p, err := NewChaosProxy(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestReconnectResume forces clean connection drops at chosen moments
// and checks the client resumes with nothing lost: pipelined writes
// that were never acknowledged are replayed, reads block through the
// redial instead of failing, and the reconnect handshake revalidates
// the lease by renewal — the fencing epoch must NOT move, or resent
// operations and the single-writer story would both be wrong.
func TestReconnectResume(t *testing.T) {
	proxy := chaosServer(t, ChaosOptions{Seed: 1})
	addr := proxy.Addr()
	var fatal atomic.Value
	c, err := Open(addr, 256, Options{
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

	for i := 0; i < 256; i++ {
		c.Write(i, int64(i+1000))
	}
	proxy.DropAll() // writes may be unacked; they must be replayed
	for i := 0; i < 256; i++ {
		if got := c.Read(i); got != int64(i+1000) {
			t.Fatalf("cell %d = %d after drop, want %d", i, got, i+1000)
		}
	}
	proxy.DropAll()
	if err := c.WriteAcked(7, []int64{-7}); err != nil {
		t.Fatalf("WriteAcked across a drop: %v", err)
	}
	if got := c.Read(7); got != -7 {
		t.Fatalf("cell 7 = %d, want -7", got)
	}
	if got := c.Epoch(); got != e0 {
		t.Fatalf("epoch moved across reconnects: %d, want %d (renew-based resume must not re-grant)", got, e0)
	}
	if err, _ := fatal.Load().(error); err != nil {
		t.Fatalf("client died during reconnect test: %v", err)
	}
	if proxy.Drops() < 2 {
		t.Fatalf("proxy injected %d drops, want ≥ 2", proxy.Drops())
	}
}

// TestCloseReportsDiscardedWrites: closing a client whose connection is
// down (mid-redial) with pipelined writes still queued must return an
// error naming the loss, not pretend the writes reached the server.
func TestCloseReportsDiscardedWrites(t *testing.T) {
	proxy := chaosServer(t, ChaosOptions{Seed: 9})
	var fatal atomic.Value
	c, err := Open(proxy.Addr(), 16, Options{
		Namespace:      uniqueNS(),
		RedialBackoff:  200 * time.Millisecond,
		RedialAttempts: 50,
		OnFatal:        collectFatal(&fatal),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Write(i, int64(i+1)) // pipelined; unflushed and unacknowledged
	}
	proxy.Close() // sever now and refuse every redial
	// Wait for the reader to notice the severed connection.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.s.c.Conn() == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = c.Close()
	if err == nil || !strings.Contains(err.Error(), "discarded") {
		t.Fatalf("Close with queued writes and no connection returned %v, want a discard error", err)
	}
}

// TestChaosSoak runs a deterministic per-cell workload through a proxy
// that injects latency jitter, periodic severs and partial writes, then
// audits every cell. Read-your-writes must hold for each goroutine's
// own cells across however many reconnects the chaos causes. Short mode
// shrinks the clock, not the checks.
func TestChaosSoak(t *testing.T) {
	dur := 3 * time.Second
	if testing.Short() {
		dur = 800 * time.Millisecond
	}
	proxy := chaosServer(t, ChaosOptions{
		Seed:          42,
		LatencyJitter: 300 * time.Microsecond,
		DropEvery:     64 << 10,
		PartialWrites: true,
	})
	addr := proxy.Addr()
	const (
		workers     = 4
		cellsPerW   = 16
		cells       = workers * cellsPerW
		ackedEvery  = 16
		verifyEvery = 8
	)
	var fatal atomic.Value
	c, err := Open(addr, cells, Options{
		Namespace:      uniqueNS(),
		LeaseTTL:       400 * time.Millisecond,
		RedialAttempts: 100,
		RedialBackoff:  5 * time.Millisecond,
		OnFatal:        collectFatal(&fatal),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var iters atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * cellsPerW
			seq := int64(0)
			for time.Now().Before(deadline) && fatal.Load() == nil {
				seq++
				cell := base + int(seq)%cellsPerW
				val := int64(w+1)<<32 | seq
				if seq%ackedEvery == 0 {
					if err := c.WriteAcked(cell, []int64{val}); err != nil {
						errs <- fmt.Errorf("worker %d: WriteAcked: %w", w, err)
						return
					}
				} else {
					c.Write(cell, val)
				}
				if seq%verifyEvery == 0 {
					if got := c.Read(cell); got != val {
						errs <- fmt.Errorf("worker %d: read-your-writes broken: cell %d = %#x, want %#x", w, cell, got, val)
						return
					}
				}
				iters.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err, _ := fatal.Load().(error); err != nil {
		t.Fatalf("client died during soak: %v", err)
	}

	// Final audit: stamp every cell with an acknowledged sentinel, then
	// range-read the whole register file back.
	for a := 0; a < cells; a++ {
		if err := c.WriteAcked(a, []int64{int64(a) + 5_000_000}); err != nil {
			t.Fatalf("final stamp of cell %d: %v", a, err)
		}
	}
	dst := make([]int64, cells)
	if err := c.ReadRange(0, dst); err != nil {
		t.Fatal(err)
	}
	for a, v := range dst {
		if v != int64(a)+5_000_000 {
			t.Fatalf("audit: cell %d = %d, want %d", a, v, int64(a)+5_000_000)
		}
	}
	t.Logf("soak: %d ops, %d injected drops, final epoch %d", iters.Load(), proxy.Drops(), c.Epoch())
	if !testing.Short() && proxy.Drops() == 0 {
		t.Fatal("soak ran with zero injected drops; chaos options are not biting")
	}
}
