package netmem

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"slices"
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

	if rop, _ := send(opHello, helloP("corrupt-test", 32, 0)); rop != opHelloOK {
		t.Fatalf("hello reply op %d", rop)
	}
	ep := uint64(0)
	if err := wire.WriteFrame(bw, opAcquire, 1, append(wire.AppendU64(wire.AppendU64([]byte{0}, 1), 1000), 1)); err != nil {
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
	huge := wire.AppendU32(wire.AppendU64([]byte{0}, ^uint64(0)), 1)
	if rop, code := send(opReadRange, huge); rop != opErr || code != codeBadAddr {
		t.Fatalf("overflowing readrange: op %d code %d, want opErr/badaddr", rop, code)
	}
	// An acked write with the same wrap, and the malformed shapes of its
	// frame: no cells, a length that is not 17 + 8k — which is also what
	// a peer from before amo-dispatch-v5 sends, its flags byte after addr,
	// and what a v1 peer sends, with no handle before the epoch.
	hdr := func(addr uint64) []byte {
		return wire.AppendU64(wire.AppendU64([]byte{0}, ep), addr)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		code    uint16
	}{
		{"addr+count overflow", wire.AppendI64(hdr(^uint64(0)), 7), codeBadAddr},
		{"no cells", hdr(3), codeProto},
		{"length not 17+8k", append(wire.AppendI64(hdr(3), 7), 1, 2, 3), codeProto},
		{"flags byte of an old peer", wire.AppendI64(append(hdr(3), 1), 7), codeProto},
		{"no handle: a v1 peer", wire.AppendI64(hdr(3)[1:], 7), codeProto},
	} {
		if rop, code := send(opWriteAcked, c.payload); rop != opErr || code != c.code {
			t.Fatalf("acked write, %s: op %d code %d, want opErr/%d", c.name, rop, code, c.code)
		}
	}
	// Ops 5, 6, 8, 9, 11 and 12 are reserved: whatever a stale client
	// puts in them (here a well-formed journal write of 8–12's day), the
	// server answers "unknown op" and applies nothing.
	stale := wire.AppendU64(wire.AppendU64(wire.AppendU64(nil, ep), 3), 7)
	for _, op := range []byte{5, 6, 8, 9, 11, 12} {
		if rop, code := send(op, stale); rop != opErr || code != codeProto {
			t.Fatalf("reserved op %d: op %d code %d, want opErr/proto", op, rop, code)
		}
	}
	// The connection (and server) survived: a normal op still works.
	if rop, _ := send(opReadRange, wire.AppendU32(wire.AppendU64([]byte{0}, 3), 1)); rop != opValues {
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

// TestNetShardSpec pins where the net opener puts an instance suffix:
// on the namespace — never the port — and before any option tail, on
// "default" when the spec names none; a spec's instances share one
// session. The hello stamps each namespace it creates, and a reopen
// reports the stamps and writes none of its own.
func TestNetShardSpec(t *testing.T) {
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	insts := []membackend.Instance{{Suffix: ".shard0", Stamp: 11}, {Suffix: ".shard1", Stamp: 12}}
	for _, spec := range []string{"net:" + addr + "/jobs", "net:" + addr + "/opt?ttl=1s", "net:" + addr} {
		bs, cell0, err := membackend.OpenEach(spec, 8, insts...)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if bs[0].(*NetMem).s != bs[1].(*NetMem).s {
			t.Errorf("%s: the instances opened two sessions, want one", spec)
		}
		for i, b := range bs {
			if b.Reopened() || cell0[i] != 0 || b.Read(0) != insts[i].Stamp {
				t.Errorf("%s instance %d: Reopened %v, reported cell 0 %d, holds %d; want false, 0, %d",
					spec, i, b.Reopened(), cell0[i], b.Read(0), insts[i].Stamp)
			}
			b.Close()
		}
	}
	bs, cell0, err := membackend.OpenEach("net:"+addr+"/jobs", 8, membackend.Instance{Suffix: ".shard0", Stamp: 99}, membackend.Instance{Suffix: ".shard1"})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bs {
		if !b.Reopened() || cell0[i] != insts[i].Stamp || b.Read(0) != insts[i].Stamp {
			t.Errorf("reopened instance %d: Reopened %v, reported cell 0 %d, holds %d; want true, %d, %d",
				i, b.Reopened(), cell0[i], b.Read(0), insts[i].Stamp, insts[i].Stamp)
		}
		b.Close()
	}
	srv.mu.Lock()
	got := slices.Sorted(maps.Keys(srv.nss))
	srv.mu.Unlock()
	want := []string{"default.shard0", "default.shard1", "jobs.shard0", "jobs.shard1", "opt.shard0", "opt.shard1"}
	if !slices.Equal(got, want) {
		t.Fatalf("server holds namespaces %v, want %v", got, want)
	}
}

// TestPipelinedWritesOrdered: a burst of pipelined writes followed by a
// read observes every one of them (read-your-writes through the
// pipeline), and a range read agrees. On the wire each Write is a
// one-cell write_acked and the Read a one-cell read_range.
func TestPipelinedWritesOrdered(t *testing.T) {
	addr := testServerAddr(t)
	c, err := Open(addr, 1024, Options{Namespace: uniqueNS()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acked, ranged := srvReqs[opWriteAcked].Value(), srvReqs[opReadRange].Value()
	for i := 0; i < 1024; i++ {
		c.Write(i, int64(i)^0x5a5a)
	}
	if got := c.Read(1023); got != 1023^0x5a5a {
		t.Fatalf("read after pipelined burst = %d", got)
	}
	if w, r := srvReqs[opWriteAcked].Value()-acked, srvReqs[opReadRange].Value()-ranged; w != 1024 || r != 1 {
		t.Fatalf("1024 writes and a read reached the server as %d write_acked and %d read_range, want 1024 and 1", w, r)
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
	if err := c.s.c.Conn().(*net.TCPConn).SetWriteBuffer(16 << 10); err != nil {
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
	_, w0 := c.s.c.SocketCalls()
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
	if _, w1 := c.s.c.SocketCalls(); w1-w0 != 2 {
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
