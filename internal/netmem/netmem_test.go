package netmem

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/memtest"
	"atmostonce/internal/shmem"
	"atmostonce/internal/wire"
)

// testServerAddr returns the address of an in-process register server
// torn down with the test.
func testServerAddr(t *testing.T) string {
	t.Helper()
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

var nsSeq atomic.Uint64

// uniqueNS returns a namespace name no other test has used.
func uniqueNS() string {
	return fmt.Sprintf("t%d-%d-%d", os.Getpid(), time.Now().UnixNano()&0xffffff, nsSeq.Add(1))
}

// TestNetMemSuite runs the full backend conformance battery against a
// live server through the registry spec path — the acceptance gate for
// the remote backend.
func TestNetMemSuite(t *testing.T) {
	addr := testServerAddr(t)
	var ns string
	open := func(t *testing.T, size int) shmem.Mem {
		b, err := membackend.Open(fmt.Sprintf("net:%s/%s", addr, ns), size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	memtest.RunMemSuite(t, memtest.Factory{
		New: func(t *testing.T, size int) shmem.Mem {
			ns = uniqueNS()
			return open(t, size)
		},
		Reopen:  open,
		Release: func(t *testing.T, m shmem.Mem) { m.(membackend.Backend).Close() },
	})
}

// TestCountingNetSuite checks the wrapper composes over the remote
// backend ("counting:net:..."), WriteAcked and ReadRange included.
func TestCountingNetSuite(t *testing.T) {
	addr := testServerAddr(t)
	var ns string
	open := func(t *testing.T, size int) shmem.Mem {
		b, err := membackend.Open(fmt.Sprintf("counting:net:%s/%s", addr, ns), size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	memtest.RunMemSuite(t, memtest.Factory{
		New: func(t *testing.T, size int) shmem.Mem {
			ns = uniqueNS()
			return open(t, size)
		},
		Reopen:  open,
		Release: func(t *testing.T, m shmem.Mem) { m.(membackend.Backend).Close() },
	})
}

// TestReopenedFlag pins the Reopened semantics across client sessions:
// a fresh namespace is not "reopened", the second session over it is.
func TestReopenedFlag(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	c1, err := Open(addr, 32, Options{Namespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Reopened() {
		t.Fatal("fresh namespace reported reopened")
	}
	if err := c1.WriteAcked(7, []int64{1234}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(addr, 32, Options{Namespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Reopened() {
		t.Fatal("second session over the namespace not reported reopened")
	}
	if got := c2.Read(7); got != 1234 {
		t.Fatalf("cell 7 = %d across sessions, want 1234", got)
	}
}

// TestSizeMismatchRejected: a hello whose size disagrees with the open
// namespace must fail loudly, not silently alias cells.
func TestSizeMismatchRejected(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	c1, err := Open(addr, 64, Options{Namespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := Open(addr, 128, Options{Namespace: ns, FailFast: true}); err == nil {
		t.Fatal("size mismatch accepted")
	} else if !strings.Contains(err.Error(), "cells") {
		t.Fatalf("size mismatch error does not explain itself: %v", err)
	}
}

// TestBadNamespaceRejected: names that could escape into backend paths
// are refused at hello.
func TestBadNamespaceRejected(t *testing.T) {
	addr := testServerAddr(t)
	for _, ns := range []string{"..", "a/b", "x y"} {
		if _, err := Open(addr, 8, Options{Namespace: ns, FailFast: true}); err == nil {
			t.Errorf("namespace %q accepted", ns)
		}
	}
}

// TestListenOnce: a second Listen is refused and leaves the first
// listener serving, and Close returns — it used to close only the newest
// listener and wait for ever on the first one's accept loop.
func TestListenOnce(t *testing.T) {
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("second Listen accepted")
	}
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q after a second Listen, want the first listener's %q", srv.Addr(), addr)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a second Listen")
	}
}

// TestCorruptRangeFrames hand-crafts frames whose addr+count overflows
// uint64: the server must answer with a bounds error, not panic on a
// negative index (a single malformed client must never take down the
// register service).
func TestCorruptRangeFrames(t *testing.T) {
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := wire.NewFrameReader(conn, 4096)
	bw := bufio.NewWriter(conn)

	send := func(op byte, payload []byte) (reply byte, errCode uint16) {
		t.Helper()
		if err := wire.WriteFrame(bw, op, 1, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		rop, _, rp, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rop == opErr {
			d := wire.Decoder{B: rp}
			return rop, d.U16()
		}
		return rop, 0
	}

	if rop, _ := send(opHello, wire.AppendU64(wire.AppendStr(nil, "corrupt-test"), 32)); rop != opHelloOK {
		t.Fatalf("hello reply op %d", rop)
	}
	ep := uint64(0)
	if err := wire.WriteFrame(bw, opAcquire, 1, append(wire.AppendU64(wire.AppendU64(nil, 1), 1000), 1)); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	rop, _, rp, err := fr.Next()
	if err != nil || rop != opAcquireOK {
		t.Fatalf("acquire reply op %d err %v", rop, err)
	}
	d := wire.Decoder{B: rp}
	ep = d.U64()

	// ReadRange with addr+count wrapping to 0.
	huge := wire.AppendU32(wire.AppendU64(nil, ^uint64(0)), 1)
	if rop, code := send(opReadRange, huge); rop != opErr || code != codeBadAddr {
		t.Fatalf("overflowing readrange: op %d code %d, want opErr/badaddr", rop, code)
	}
	// An acked write with the same wrap, and the malformed shapes of its
	// frame: no cells, a length that is not 16 + 8k — which is also what
	// a peer from before amo-dispatch-v5 sends, its flags byte after addr.
	hdr := func(addr uint64) []byte {
		return wire.AppendU64(wire.AppendU64(nil, ep), addr)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		code    uint16
	}{
		{"addr+count overflow", wire.AppendI64(hdr(^uint64(0)), 7), codeBadAddr},
		{"no cells", hdr(3), codeProto},
		{"length not 16+8k", append(wire.AppendI64(hdr(3), 7), 1, 2, 3), codeProto},
		{"flags byte of an old peer", wire.AppendI64(append(hdr(3), 1), 7), codeProto},
	} {
		if rop, code := send(opWriteAcked, c.payload); rop != opErr || code != c.code {
			t.Fatalf("acked write, %s: op %d code %d, want opErr/%d", c.name, rop, code, c.code)
		}
	}
	// Ops 8, 9, 11 and 12 are reserved: whatever a stale client puts in
	// them (here a well-formed journal write of their day), the server
	// answers "unknown op" and applies nothing.
	stale := wire.AppendU64(wire.AppendU64(wire.AppendU64(nil, ep), 3), 7)
	for _, op := range []byte{8, 9, 11, 12} {
		if rop, code := send(op, stale); rop != opErr || code != codeProto {
			t.Fatalf("reserved op %d: op %d code %d, want opErr/proto", op, rop, code)
		}
	}
	// The connection (and server) survived: a normal op still works.
	if rop, _ := send(opRead, wire.AppendU64(nil, 3)); rop != opValue {
		t.Fatalf("read after corrupt frames: op %d", rop)
	}
}

// TestInRange is the table for the one bounds check every cell op shares:
// it must hold at the edges of uint64, where addr+count wraps.
func TestInRange(t *testing.T) {
	const size = 1000
	for _, c := range []struct {
		name  string
		addr  uint64
		count int
		want  bool
	}{
		{"first cell", 0, 1, true},
		{"last cell", size - 1, 1, true},
		{"whole namespace", 0, size, true},
		{"one past the end", size, 1, false},
		{"run over the end", size - 1, 2, false},
		{"addr = 1<<64 − 1", ^uint64(0), 1, false},
		{"addr + count wraps to 0", ^uint64(0) - 1, 2, false},
		{"addr + count wraps into range", ^uint64(0) - 3, 10, false},
		{"count = 0", 5, 0, false}, // refused on a range read; an acked write's frame shape rules it out earlier
		{"count < 0", 5, -1, false},
		{"count = maxRange + 1", 0, maxRange + 1, false},
	} {
		if got := inRange(c.addr, c.count, size); got != c.want {
			t.Errorf("%s: inRange(%d, %d, %d) = %v, want %v", c.name, c.addr, c.count, size, got, c.want)
		}
	}
	if !inRange(0, maxRange, maxCells) || inRange(0, maxRange+1, maxCells) {
		t.Error("a run is bounded at maxRange cells, not by the namespace alone")
	}
}

// TestParseNetSpec is the spec-option parser's table test.
func TestParseNetSpec(t *testing.T) {
	cases := []struct {
		arg        string
		addr, ns   string
		errPattern string
	}{
		{"127.0.0.1:7878", "127.0.0.1:7878", "", ""},
		{"127.0.0.1:7878/jobs", "127.0.0.1:7878", "jobs", ""},
		{"[::1]:7878/jobs.shard0", "[::1]:7878", "jobs.shard0", ""},
		{"h:1/ns?ttl=750ms&acquire=fail&retries=3", "h:1", "ns", ""},
		{"h:1/ns?acquire=wait", "h:1", "ns", ""},
		{"h:1/", "", "", "empty namespace"},
		{"", "", "", "HOST:PORT"},
		{"nohostport", "", "", "HOST:PORT"},
		{"h:1/ns?ttl=banana", "", "", "bad ttl"},
		{"h:1/ns?acquire=maybe", "", "", "bad acquire mode"},
		{"h:1/ns?retries=0", "", "", "bad retries"},
		{"h:1/ns?bogus=1", "", "", "unknown option"},
	}
	for _, c := range cases {
		addr, opts, err := ParseSpec(c.arg)
		if c.errPattern != "" {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted, want error containing %q", c.arg, c.errPattern)
			} else if !strings.Contains(err.Error(), c.errPattern) {
				t.Errorf("ParseSpec(%q) error %q does not mention %q", c.arg, err, c.errPattern)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.arg, err)
			continue
		}
		if addr != c.addr || opts.Namespace != c.ns {
			t.Errorf("ParseSpec(%q) = addr %q ns %q, want %q %q", c.arg, addr, opts.Namespace, c.addr, c.ns)
		}
	}
	// Option values actually land.
	_, opts, err := ParseSpec("h:1/ns?ttl=750ms&acquire=fail&retries=3&dialtimeout=1s&acquiretimeout=2s")
	if err != nil {
		t.Fatal(err)
	}
	if opts.LeaseTTL != 750*time.Millisecond || !opts.FailFast || opts.RedialAttempts != 3 ||
		opts.DialTimeout != time.Second || opts.AcquireTimeout != 2*time.Second {
		t.Fatalf("options not applied: %+v", opts)
	}
}

// TestNetShardSpec pins the "net" suffix grammar this package registers
// with membackend: the shard suffix lands on the namespace — never the
// port — before any option tail, with the default namespace made
// explicit when the spec names none.
func TestNetShardSpec(t *testing.T) {
	cases := [][3]string{
		{"net:127.0.0.1:7878/jobs", "2", "net:127.0.0.1:7878/jobs.shard2"},
		{"net:127.0.0.1:7878/jobs?ttl=1s", "1", "net:127.0.0.1:7878/jobs.shard1?ttl=1s"},
		{"counting:net:h:1/ns", "0", "counting:net:h:1/ns.shard0"},
		{"net:127.0.0.1:7878", "0", "net:127.0.0.1:7878/default.shard0"},
		{"net:127.0.0.1:7878?ttl=1s", "3", "net:127.0.0.1:7878/default.shard3?ttl=1s"},
	}
	for _, c := range cases {
		shard := int(c[1][0] - '0')
		if got := membackend.ShardSpec(c[0], shard); got != c[2] {
			t.Errorf("ShardSpec(%q, %d) = %q, want %q", c[0], shard, got, c[2])
		}
	}
}

// TestPipelinedWritesOrdered: a burst of pipelined writes followed by a
// read observes every one of them (read-your-writes through the
// pipeline), and a range read agrees.
func TestPipelinedWritesOrdered(t *testing.T) {
	addr := testServerAddr(t)
	c, err := Open(addr, 1024, Options{Namespace: uniqueNS()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 1024; i++ {
		c.Write(i, int64(i)^0x5a5a)
	}
	if got := c.Read(1023); got != 1023^0x5a5a {
		t.Fatalf("read after pipelined burst = %d", got)
	}
	dst := make([]int64, 1024)
	if err := c.ReadRange(0, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != int64(i)^0x5a5a {
			t.Fatalf("cell %d = %d after burst", i, v)
		}
	}
}

// TestAwaitedOpsCombineWrites: the combining writer at the register
// client. A proxy stops forwarding the client's bytes, so one WriteAcked
// of 65 536 cells stays in its write over a 16 KiB send buffer; fifteen
// more from other goroutines find the write in progress, append their
// frames and leave them to it. Once the proxy forwards again they all
// leave in one more write — sixteen awaited ops, two socket writes, where
// every awaited op flushed its own before.
func TestAwaitedOpsCombineWrites(t *testing.T) {
	const ops = 16
	hold := newHoldProxy(t, testServerAddr(t))
	c, err := Open(hold.ln.Addr().String(), maxRange, Options{Namespace: uniqueNS(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.c.Conn().(*net.TCPConn).SetWriteBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	queued := func(n uint64) func() bool {
		base := cliReqs[opWriteAcked].Value()
		return func() bool { return cliReqs[opWriteAcked].Value() == base+n }
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: %s", what)
			}
		}
	}
	hold.mu.Lock() // the proxy reads on, and forwards nothing
	_, w0 := c.c.SocketCalls()
	errs := make(chan error, ops) // one an op
	first := queued(1)
	go func() { errs <- c.WriteAcked(0, make([]int64, maxRange)) }()
	waitFor("the 512 KiB write", first)
	rest := queued(ops - 1)
	for i := 1; i < ops; i++ {
		go func() { errs <- c.WriteAcked(i, []int64{int64(i)}) }()
	}
	waitFor("fifteen more ops queued", rest)
	hold.mu.Unlock()
	for i := 0; i < ops; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, w1 := c.c.SocketCalls(); w1-w0 != 2 {
		t.Fatalf("%d awaited ops, one made during a write in progress and %d after it, took %d socket writes, want 2", ops, ops-1, w1-w0)
	}
}

// holdProxy forwards one connection to a register server, except while
// its mu is held: then the bytes the client sends wait in the proxy and
// in the sockets' buffers, the proxy's receive buffer cut to 16 KiB.
type holdProxy struct {
	ln net.Listener
	mu sync.Mutex
}

func newHoldProxy(t *testing.T, target string) *holdProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &holdProxy{ln: ln}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer s.Close()
		c.(*net.TCPConn).SetReadBuffer(16 << 10)
		go io.Copy(c, s)
		buf := make([]byte, 32<<10)
		for {
			n, err := c.Read(buf)
			p.mu.Lock()
			p.mu.Unlock()
			if n > 0 {
				if _, err := s.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return p
}
