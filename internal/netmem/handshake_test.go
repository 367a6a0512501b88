package netmem

import (
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/wire"
)

// countingConn counts the Reads that delivered bytes: each is at least
// one Write of the peer's.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// flight is what one connection's client had sent when its first reply
// was let through: the request ops, and how many Reads they arrived in.
type flight struct {
	ops   []byte
	reads int64
}

// flightProxy sits in front of a register server and holds every reply
// back until the client's opening flight is complete — frames request
// frames: a hello and a lease op per namespace — or its patience runs
// out. A client that waits for hello's reply before it sends its lease
// op shows up as a short flight (after the patience); one that sends
// them all at once as a full one, however the network cut the bytes up.
type flightProxy struct {
	ln     net.Listener
	target string
	frames int

	mu      sync.Mutex
	flights []flight
	conns   []net.Conn
	wg      sync.WaitGroup
}

const flightPatience = 2 * time.Second

func newFlightProxy(t *testing.T, target string, frames int) *flightProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flightProxy{ln: ln, target: target, frames: frames}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.sever()
		p.wg.Wait()
	})
	return p
}

// sever cuts every connection through the proxy.
func (p *flightProxy) sever() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *flightProxy) seen() []flight {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.flights)
}

func (p *flightProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.serve(c, s)
	}
}

func (p *flightProxy) serve(c, s net.Conn) {
	defer p.wg.Done()
	cc := &countingConn{Conn: c}
	var (
		mu   sync.Mutex
		ops  []byte
		full = make(chan struct{})
		gone = make(chan struct{})
	)
	go func() { // replies, once the flight is in
		defer p.wg.Done()
		defer c.Close()
		select {
		case <-full:
		case <-gone:
		case <-time.After(flightPatience):
		}
		mu.Lock()
		f := flight{slices.Clone(ops), cc.reads.Load()}
		mu.Unlock()
		p.mu.Lock()
		p.flights = append(p.flights, f)
		p.mu.Unlock()
		io.Copy(c, s)
	}()
	defer s.Close()
	defer close(gone)
	fr := wire.NewFrameReader(cc, 4<<10)
	for n := 1; ; n++ {
		op, seq, payload, err := fr.Next()
		if err != nil {
			return
		}
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
		if n == p.frames {
			close(full)
		}
		if _, err := s.Write(append(wire.AppendHeader(nil, op, seq, len(payload)), payload...)); err != nil {
			return
		}
	}
}

// TestOpenIsOneFlight: Open's hello and acquire leave before either is
// answered — one round trip to a usable, leased connection, not two.
func TestOpenIsOneFlight(t *testing.T) {
	proxy := newFlightProxy(t, testServerAddr(t), 2)
	c, err := Open(proxy.ln.Addr().String(), 16, Options{Namespace: uniqueNS()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteAcked(3, []int64{33}); err != nil {
		t.Fatal(err)
	}
	got := proxy.seen()
	if len(got) != 1 || string(got[0].ops) != string([]byte{opHello, opAcquire}) {
		t.Fatalf("ops sent before the first reply: %v, want one flight of hello+acquire %v",
			got, []byte{opHello, opAcquire})
	}
	if got[0].reads != 1 {
		t.Errorf("the flight arrived in %d reads, want 1: hello and acquire are one Write", got[0].reads)
	}
	// An open is not news — the sink is quiet about it at the default
	// level — but the flight ring has it for the post-mortem.
	granted := false
	for _, r := range eventlog.Default().Snapshot() {
		granted = granted || (r.Event == "netmem_server_lease_granted" && r.Level == "DEBUG")
	}
	if !granted {
		t.Error("no DEBUG netmem_server_lease_granted record in the flight ring after an open")
	}
}

// TestRedialIsOneFlight: a reconnect's hello and renew are one flight
// too, and it is still a renew — the epoch does not move.
func TestRedialIsOneFlight(t *testing.T) {
	proxy := newFlightProxy(t, testServerAddr(t), 2)
	var fatal atomic.Value
	c, err := Open(proxy.ln.Addr().String(), 16, Options{Namespace: uniqueNS(), OnFatal: collectFatal(&fatal)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e0 := c.Epoch()
	c.Write(5, 55) // unacknowledged when the connection goes: resent behind the handshake
	proxy.sever()
	if got := c.Read(5); got != 55 {
		t.Fatalf("cell 5 = %d across the redial, want 55", got)
	}
	got := proxy.seen()
	if len(got) != 2 || string(got[1].ops) != string([]byte{opHello, opRenew}) {
		t.Fatalf("ops sent before each connection's first reply: %v, want the redial's to be hello+renew %v",
			got, []byte{opHello, opRenew})
	}
	if c.Epoch() != e0 {
		t.Fatalf("epoch %d → %d across the redial", e0, c.Epoch())
	}
	if err := fatal.Load(); err != nil {
		t.Fatalf("client died: %v", err)
	}
}

// TestRefusedHelloWinsOverLeaseOp: with the lease op already in flight
// behind it, a refused hello is still what Open reports — not the "no
// namespace" the server gives the acquire — and that acquire grants
// nothing. (The lease op's own refusals are lease_test.go's: FailFast
// against a live lease is ErrLeaseHeld in TestLeaseFencing, a waiting
// acquire that times out leaves no lease in TestDeadWaiterLeavesNoGhost.)
func TestRefusedHelloWinsOverLeaseOp(t *testing.T) {
	addr := testServerAddr(t)
	ns := uniqueNS()
	c1, err := Open(addr, 64, Options{Namespace: ns})
	if err != nil {
		t.Fatal(err)
	}
	e1 := c1.Epoch()
	if err := c1.Close(); err != nil { // the lease is free: an acquire that got through would be granted
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ns   string
		size int
		code uint16
	}{
		{"size mismatch", ns, 128, codeSizeMismatch},
		{"bad namespace", "a/b", 64, codeBadNamespace},
	} {
		_, err := Open(addr, c.size, Options{Namespace: c.ns})
		var we *wireError
		if !errors.As(err, &we) || we.code != c.code {
			t.Errorf("%s: Open = %v, want server error %d", c.name, err, c.code)
		}
	}
	c2, err := Open(addr, 64, Options{Namespace: ns, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Epoch(); got != e1+1 {
		t.Fatalf("epoch %d after two refused hellos, want %d: an acquire behind a refused hello was granted", got, e1+1)
	}
}

// TestConnectionFootprint: a register session at rest holds what its
// traffic needs — client and in-process server together, its namespaces'
// own 11 KiB of cells each included — fresh, and after it has carried a
// recovery scan (the one large frame either end ever sees). A session is
// the benchmark dispatcher's: two namespaces over one connection.
func TestConnectionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const (
		sessions = 32
		cells    = 1388     // a benchmark shard: 8 + 2·⌈(44 096+1)/64⌉
		limit    = 78 << 10 // read 56–57 KiB fresh and 68–71 after a scan, + 10 % (two one-namespace connections: 90 and 114–120)
	)
	addr := testServerAddr(t)
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc + ms.StackInuse
	}
	names := make([][]string, sessions)
	for i := range names {
		names[i] = []string{uniqueNS(), uniqueNS()}
	}
	var clients []*NetMem
	open := func() {
		clients = clients[:0]
		for _, pair := range names {
			ms, err := OpenSession(addr, pair, nil, cells, Options{})
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, ms...)
		}
	}
	closeAll := func() {
		for _, c := range clients {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	row := make([]int64, cells)
	base := live()

	open()
	for _, c := range clients {
		if err := c.WriteAcked(8, []int64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	per := (live() - base) / sessions
	t.Logf("fresh: %d KiB a session", per>>10)
	if per > limit {
		t.Errorf("a fresh session holds %d KiB, want ≤ %d", per>>10, limit>>10)
	}
	closeAll()

	open()
	for _, c := range clients {
		if !c.Reopened() {
			t.Fatal("namespace not reopened")
		}
		if err := c.ReadRange(0, row); err != nil {
			t.Fatal(err)
		}
		if row[9] != 2 {
			t.Fatalf("scan read cell 9 = %d, want 2", row[9])
		}
	}
	per = (live() - base) / sessions
	t.Logf("after a scan of %d cells a namespace: %d KiB a session", cells, per>>10)
	if per > limit {
		t.Errorf("a session that scanned its namespaces' %d cells holds %d KiB, want ≤ %d", cells, per>>10, limit>>10)
	}
	closeAll()
	runtime.KeepAlive(row)
}
