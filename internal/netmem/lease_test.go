package netmem

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/obs/eventlog"
)

// collectFatal returns Options hooks that record a fatal error instead
// of panicking.
func collectFatal(dst *atomic.Value) func(error) {
	return func(err error) {
		dst.CompareAndSwap(nil, error(err))
	}
}

// stopRenew halts lease renewal without closing the session, to let its
// leases expire while the client lives (a stalled writer).
func (m *NetMem) stopRenew() { m.s.halt() }

// TestLeaseFencing is the arbitration story end to end inside one
// process: writer 1 holds the lease, a fail-fast contender bounces, the
// lease expires once writer 1 stops renewing (a stalled process), a
// waiting successor is granted the next epoch and sees writer 1's
// registers — and writer 1's subsequent writes are fenced and do not
// land.
func TestLeaseFencing(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	var fatal1 atomic.Value
	c1, err := Open(addr, 64, Options{
		Namespace: ns,
		LeaseTTL:  400 * time.Millisecond,
		OnFatal:   collectFatal(&fatal1),
	})
	if err != nil {
		t.Fatal(err)
	}
	e1 := c1.Epoch()
	if err := c1.WriteAcked(1, []int64{42}); err != nil {
		t.Fatal(err)
	}

	// A fail-fast contender loses immediately, with the sentinel.
	if _, err := Open(addr, 64, Options{Namespace: ns, FailFast: true}); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("fail-fast acquire against a held lease: %v, want ErrLeaseHeld", err)
	}

	// Writer 1 stalls (stops renewing); a waiting successor takes over
	// after expiry, at the next epoch, over the same registers.
	c1.stopRenew()
	start := time.Now()
	var fatal2 atomic.Value
	c2, err := Open(addr, 64, Options{
		Namespace: ns,
		LeaseTTL:  400 * time.Millisecond,
		OnFatal:   collectFatal(&fatal2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("successor acquired in %s; it cannot have waited out the lease", waited)
	}
	if got := c2.Epoch(); got != e1+1 {
		t.Fatalf("successor epoch %d, want %d", got, e1+1)
	}
	if !c2.Reopened() {
		t.Fatal("successor did not see existing state")
	}
	if got := c2.Read(1); got != 42 {
		t.Fatalf("successor reads %d from cell 1, want 42", got)
	}

	// The stalled writer is fenced: its write is rejected and must not
	// reach the registers.
	err = c1.WriteAcked(2, []int64{666})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale writer's WriteAcked: %v, want ErrFenced", err)
	}
	if got := c2.Read(2); got != 0 {
		t.Fatalf("fenced write landed: cell 2 = %d", got)
	}
	// The client declared itself dead: further operations fail without
	// touching the wire.
	if err := c1.Sync(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Sync on fenced client: %v, want ErrFenced", err)
	}
	c1.Close()
}

// TestFencedAsyncWriteTripsOnFatal: a pipelined (fire-and-forget) write
// that gets fenced has no caller to hand the error to — the client must
// route it through OnFatal on the next errorless operation.
func TestFencedAsyncWriteTripsOnFatal(t *testing.T) {
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
	c1.stopRenew()
	c2, err := Open(addr, 64, Options{Namespace: ns, LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Async write from the fenced writer: the rejection arrives on the
	// ack path and poisons the client.
	c1.Write(3, 1)
	deadline := time.Now().Add(5 * time.Second)
	for fatal1.Load() == nil && time.Now().Before(deadline) {
		c1.Read(0) // errorless op: surfaces the stored fatal via OnFatal
		time.Sleep(10 * time.Millisecond)
	}
	err, _ = fatal1.Load().(error)
	if err == nil || !errors.Is(err, ErrFenced) {
		t.Fatalf("OnFatal got %v, want ErrFenced", err)
	}
	if got := c2.Read(3); got != 0 {
		t.Fatalf("fenced async write landed: cell 3 = %d", got)
	}
	c1.Close()
}

// TestFatalDumpPrecedesWaiters pins the documented death: when a fence
// kills the client, the netmem_client_fatal record (CrashDump's first
// half; the AMO-FLIGHT-DUMP line follows it on the same goroutine) must
// exist before any woken waiter can reach OnFatal, whose default panics
// the process. The interleaving is forced, not hoped for: a Read is
// parked behind the fenced pipelined write, so fatalize wakes it, and
// the Logf hook — which runs on fatalize's goroutine after the waiters
// are released — holds that goroutine until OnFatal has fired. With the
// dump after the release (the examples/failover one-in-three flake)
// OnFatal sees no record every time.
func TestFatalDumpPrecedesWaiters(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	base := eventlog.Default().Snapshot()
	var baseSeq uint64
	if len(base) > 0 {
		baseSeq = base[len(base)-1].Seq
	}
	onFatal := make(chan bool, 1) // the first OnFatal: was the death already recorded?
	fatalSeen := make(chan struct{})
	var once atomic.Bool
	c1, err := Open(addr, 64, Options{
		Namespace: ns,
		LeaseTTL:  300 * time.Millisecond,
		OnFatal: func(error) {
			if once.Swap(true) {
				return
			}
			recorded := false
			for _, r := range eventlog.Default().Snapshot() {
				if r.Seq > baseSeq && r.Event == "netmem_client_fatal" && r.Attrs["addr"] == addr {
					recorded = true
				}
			}
			onFatal <- recorded
			close(fatalSeen)
		},
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "netmem: fatal") {
				select {
				case <-fatalSeen:
				case <-time.After(5 * time.Second):
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.stopRenew()
	c2, err := Open(addr, 64, Options{Namespace: ns, LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	c1.Write(3, 1) // pipelined; the fenced rejection arrives on the ack path
	c1.Read(0)     // flushes both, then waits behind the write: fatalize wakes it
	select {
	case recorded := <-onFatal:
		if !recorded {
			t.Fatal("a released waiter reached OnFatal before the death was recorded: the process would have died without its flight dump")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fenced client never reached OnFatal")
	}
}

// TestCloseSendsNothingBehindRelease: a holder that closes cleanly does
// not come to suspect itself. The lease ticks every 10 ms and the proxy
// holds every frame 25 ms each way, so each Close waits 50 ms for its
// release's ack with a renew already due: admitted behind the release,
// that renew is answered "fenced" (the lease has no holder) and a client
// nobody contended with dies through OnFatal — by default a panic in a
// process that was shutting down. Fifty open/close cycles, ten at a time.
func TestCloseSendsNothingBehindRelease(t *testing.T) {
	proxy, err := NewChaosProxy(testServerAddr(t), ChaosOptions{Latency: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	deaths := cliFatal.Value()
	var fatal atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				c, err := Open(proxy.Addr(), 8, Options{
					Namespace: uniqueNS(),
					LeaseTTL:  30 * time.Millisecond,
					OnFatal:   collectFatal(&fatal),
				})
				if err != nil {
					t.Error(err)
					return
				}
				// One round trip of work: five ticks long, so the renew loop
				// is mid-renew with the next tick due when Close begins.
				if err := c.WriteAcked(0, []int64{1}); err != nil {
					t.Error(err)
				}
				if err := c.Close(); err != nil {
					t.Errorf("clean close: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := fatal.Load(); err != nil {
		t.Errorf("a closing client reached OnFatal: %v", err)
	}
	if n := cliFatal.Value() - deaths; n != 0 {
		t.Errorf("%d of 50 clean closes left a netmem_client_fatal record", n)
	}
}

// TestReconnectFencedByTakeover: a writer that loses its connection
// AND its lease (a successor was granted it while the writer was away)
// must discover the fence during the reconnect handshake — the renew
// comes back fenced — and die via OnFatal instead of resuming, waiting
// forever, or bumping the epoch under the successor.
func TestReconnectFencedByTakeover(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	var fatal1 atomic.Value
	c1, err := Open(addr, 32, Options{
		Namespace: ns,
		LeaseTTL:  300 * time.Millisecond,
		OnFatal:   collectFatal(&fatal1),
	})
	if err != nil {
		t.Fatal(err)
	}
	c1.stopRenew()
	c2, err := Open(addr, 32, Options{Namespace: ns, LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Cut c1's connection out from under it: the reader breaks, the
	// redialer reconnects and renews epoch e1 — which c2's grant has
	// fenced.
	c1.s.c.Conn().Close()

	deadline := time.Now().Add(10 * time.Second)
	for fatal1.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	err, _ = fatal1.Load().(error)
	if err == nil || !errors.Is(err, ErrFenced) {
		t.Fatalf("reconnect under a takeover: OnFatal got %v, want ErrFenced", err)
	}
	if got := c2.Read(0); got != 0 {
		t.Fatalf("registers disturbed by the fenced reconnect: cell 0 = %d", got)
	}
	c1.Close()
}

// TestDeadWaiterLeavesNoGhost: a contender that waits for the lease,
// times out and disconnects must not linger server-side — if it did, a
// later expiry of the incumbent's lease would grant a ghost writer,
// bump the epoch twice, and force the next real contender to wait out
// a dead holder's TTL.
func TestDeadWaiterLeavesNoGhost(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	var fatal1 atomic.Value
	c1, err := Open(addr, 16, Options{
		Namespace: ns,
		LeaseTTL:  600 * time.Millisecond,
		OnFatal:   collectFatal(&fatal1),
	})
	if err != nil {
		t.Fatal(err)
	}
	e1 := c1.Epoch()
	// An impatient contender: parks on the lease, gives up, disconnects.
	if _, err := Open(addr, 16, Options{
		Namespace:      ns,
		LeaseTTL:       600 * time.Millisecond,
		AcquireTimeout: 250 * time.Millisecond,
	}); err == nil {
		t.Fatal("impatient contender acquired a held lease")
	}
	// Now the incumbent stalls and its lease lapses. The next grant must
	// go to the next REAL contender at epoch e1+1; e1+2 would mean the
	// dead waiter's handler got a ghost grant in between.
	c1.stopRenew()
	c3, err := Open(addr, 16, Options{Namespace: ns, LeaseTTL: 600 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := c3.Epoch(); got != e1+1 {
		t.Fatalf("takeover epoch %d, want %d — a dead waiter was granted the lease as a ghost", got, e1+1)
	}
	c1.Close()
}

// TestReleaseOnCloseFreesLease: Close releases the lease, so the next
// writer acquires immediately instead of waiting out the TTL.
func TestReleaseOnCloseFreesLease(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	c1, err := Open(addr, 16, Options{Namespace: ns, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c2, err := Open(addr, 16, Options{Namespace: ns, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("acquire after release took %s; the lease was not freed", waited)
	}
}

// TestRenewKeepsLease: a live writer survives far past one TTL because
// the background renewal keeps extending the lease.
func TestRenewKeepsLease(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	c1, err := Open(addr, 16, Options{Namespace: ns, LeaseTTL: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	time.Sleep(700 * time.Millisecond) // several TTLs
	if err := c1.WriteAcked(0, []int64{7}); err != nil {
		t.Fatalf("live writer fenced after renewals: %v", err)
	}
	if _, err := Open(addr, 16, Options{Namespace: ns, FailFast: true}); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("contender against a renewed lease: %v, want ErrLeaseHeld", err)
	}
}
