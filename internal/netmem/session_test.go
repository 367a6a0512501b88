package netmem

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/dispatch"
	"atmostonce/internal/wire"
)

// Request payloads, as the op table in protocol.go lays them out, for
// the tests that send what no client would.
func helloP(name string, size uint64, stamp int64) []byte {
	return wire.AppendI64(wire.AppendU64(wire.AppendStr(nil, name), size), stamp)
}

func acquireP(h byte, client, ttlMs uint64, wait bool) []byte {
	b := wire.AppendU64(wire.AppendU64([]byte{h}, client), ttlMs)
	if wait {
		return append(b, 1)
	}
	return append(b, 0)
}

func renewP(h byte, client, epoch uint64) []byte {
	return wire.AppendU64(wire.AppendU64([]byte{h}, client), epoch)
}

func writeAckedP(h byte, epoch, addr uint64, vals ...int64) []byte {
	b := wire.AppendU64(wire.AppendU64([]byte{h}, epoch), addr)
	for _, v := range vals {
		b = wire.AppendI64(b, v)
	}
	return b
}

// rawConn is one connection driven frame by frame.
type rawConn struct {
	t   testing.TB
	nc  net.Conn
	fr  *wire.FrameReader
	seq uint32
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetLinger(0) // no TIME_WAIT: a fuzz run dials thousands
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc, fr: wire.NewFrameReader(nc, 4<<10)}
}

// do sends one request and returns its reply: the op, and the error code
// of an opErr (else 0) or the payload.
func (r *rawConn) do(op byte, payload []byte) (rop byte, code uint16, rp []byte) {
	r.t.Helper()
	r.seq++
	frame := wire.AppendHeader(nil, op, r.seq, 0)
	frame = append(frame, payload...)
	wire.EndFrame(frame, 0)
	if _, err := r.nc.Write(frame); err != nil {
		r.t.Fatal(err)
	}
	rop, seq, rp, err := r.fr.Next()
	if err != nil || seq != r.seq {
		r.t.Fatalf("reply to op %d: seq %d err %v, want seq %d", op, seq, err, r.seq)
	}
	if rop == opErr {
		d := wire.Decoder{B: rp}
		code = d.U16()
	}
	return rop, code, rp
}

// TestAdmitNeedsTheConnectionsGrant: epochs count per namespace, so a
// write's stamp alone proves nothing — the same numbers recur in every
// namespace. A connection granted epoch 1 on namespace a, a connection
// that never acquired, and one that renews a lease it was never granted
// all stamp epoch 1 on namespace b, whose lease another client holds at
// epoch 1, and every such write is fenced.
func TestAdmitNeedsTheConnectionsGrant(t *testing.T) {
	addr := testServerAddr(t)
	holder, err := Open(addr, 16, Options{Namespace: "b", LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if holder.Epoch() != 1 {
		t.Fatalf("holder's epoch %d, want 1", holder.Epoch())
	}
	fenced := func(r *rawConn, what string, op byte, payload []byte) {
		t.Helper()
		if rop, code, _ := r.do(op, payload); rop != opErr || code != codeFenced {
			t.Errorf("%s: reply op %d code %d, want fenced", what, rop, code)
		}
	}

	// Granted epoch 1 on a, then writing it into b.
	r := dialRaw(t, addr)
	if rop, _, rp := r.do(opHello, helloP("a", 16, 0)); rop != opHelloOK || rp[1] != 0 {
		t.Fatalf("hello a: op %d %v", rop, rp)
	}
	if rop, _, rp := r.do(opAcquire, acquireP(0, 7, 60_000, false)); rop != opAcquireOK || binary.LittleEndian.Uint64(rp) != 1 {
		t.Fatalf("acquire a: op %d %v, want epoch 1", rop, rp)
	}
	if rop, _, rp := r.do(opHello, helloP("b", 16, 0)); rop != opHelloOK || rp[1] != 1 {
		t.Fatalf("hello b: op %d %v, want handle 1", rop, rp)
	}
	fenced(r, "epoch 1 of a stamped on b", opWriteAcked, writeAckedP(1, 1, 0, 42))

	// Never acquired at all.
	r = dialRaw(t, addr)
	r.do(opHello, helloP("b", 16, 0))
	fenced(r, "a connection that never acquired", opWriteAcked, writeAckedP(0, 1, 0, 42))
	fenced(r, "its posted one-cell write", opWriteAcked, writeAckedP(0, 1, 1, 42))

	// A renew that guesses the epoch does not adopt the lease.
	r = dialRaw(t, addr)
	r.do(opHello, helloP("b", 16, 0))
	fenced(r, "a renew by a client that does not hold the lease", opRenew, renewP(0, 7, 1))
	fenced(r, "a write behind it", opWriteAcked, writeAckedP(0, 1, 0, 42))

	got := make([]int64, 2)
	if err := holder.ReadRange(0, got); err != nil || got[0] != 0 || got[1] != 0 {
		t.Fatalf("b's cells 0 and 1 = %v (%v): a write without the connection's grant was admitted", got, err)
	}
	if err := holder.WriteAcked(0, []int64{5}); err != nil {
		t.Fatalf("the holder's own write: %v", err)
	}
}

// TestHelloWritesOnlyWhatItCreates: a hello stamps the namespace it
// creates and no other. A stamped hello to a namespace that exists — its
// cell 0 still 0, its lease another client's — changes no cell and
// reports the 0; one that creates a namespace reports 0 and leaves its
// stamp in cell 0, which the next hello reports. A v2 hello, a stamp
// short, is answered codeProto and creates nothing.
func TestHelloWritesOnlyWhatItCreates(t *testing.T) {
	addr := testServerAddr(t)
	holder, err := Open(addr, 16, Options{Namespace: "held", LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.WriteAcked(5, []int64{55}); err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr)
	hello := func(name string, stamp int64, h byte, reopened bool, cell0 uint64) {
		t.Helper()
		rop, _, rp := r.do(opHello, helloP(name, 16, stamp))
		if rop != opHelloOK || len(rp) != 10 || (rp[0] != 0) != reopened || rp[1] != h || binary.LittleEndian.Uint64(rp[2:]) != cell0 {
			t.Fatalf("hello %q stamped %d: op %d %v, want handle %d, reopened %v, cell 0 %d", name, stamp, rop, rp, h, reopened, cell0)
		}
	}
	hello("held", 77, 0, true, 0)
	cells := make([]int64, 16)
	if err := holder.ReadRange(0, cells); err != nil {
		t.Fatal(err)
	}
	for i, v := range cells {
		if want := map[int]int64{5: 55}[i]; v != want {
			t.Fatalf("cell %d of the held namespace = %d after a stamped hello, want %d", i, v, want)
		}
	}
	hello("fresh", 77, 1, false, 0)
	hello("fresh", 78, 2, true, 77)

	if rop, code, _ := r.do(opHello, wire.AppendU64(wire.AppendStr(nil, "v2"), 16)); rop != opErr || code != codeProto {
		t.Fatalf("a v2 hello answered op %d code %d, want codeProto", rop, code)
	}
	hello("v2", 5, 4, false, 0)
}

// TestV2HelloReplyRefused: a server that answers a hello in v2's shape,
// without cell 0, fails the client's open, naming the protocol.
func TestV2HelloReplyRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr, bw := wire.NewFrameReader(nc, 4<<10), bufio.NewWriter(nc)
		for {
			op, seq, _, err := fr.Next()
			if err != nil {
				return
			}
			switch op {
			case opHello:
				wire.WriteFrame(bw, opHelloOK, seq, []byte{0, 0})
			case opAcquire:
				wire.WriteFrame(bw, opAcquireOK, seq, wire.AppendU64(wire.AppendU64(nil, 1), 1000))
			default:
				wire.WriteFrame(bw, opAck, seq, nil)
			}
			bw.Flush()
		}
	}()
	m, err := Open(ln.Addr().String(), 16, Options{DialTimeout: time.Second, RedialAttempts: 1})
	if err == nil {
		m.Close()
		t.Fatal("a v2 hello reply was accepted")
	}
	if !strings.Contains(err.Error(), "older protocol than v3") {
		t.Fatalf("the refusal does not name the protocol: %v", err)
	}
}

// TestSessionRedialIsOneFlight: a session opens with a hello and an
// acquire per namespace in one write, and a redial re-attaches and
// renews every namespace in one write too: no epoch moves, and what was
// in flight is resent behind it.
func TestSessionRedialIsOneFlight(t *testing.T) {
	const n = 3
	proxy := newFlightProxy(t, testServerAddr(t), 2*n)
	var fatal atomic.Value
	names := []string{uniqueNS(), uniqueNS(), uniqueNS()}
	ms, err := OpenSession(proxy.ln.Addr().String(), names, nil, 16, Options{OnFatal: collectFatal(&fatal)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()
	e0 := ms[0].s.epochs()
	for i, m := range ms {
		m.Write(5, int64(50+i)) // unacknowledged when the connection goes
	}
	proxy.sever()
	for i, m := range ms {
		if got := m.Read(5); got != int64(50+i) {
			t.Fatalf("namespace %d: cell 5 = %d across the redial, want %d", i, got, 50+i)
		}
	}
	want := func(lease byte) string {
		return string([]byte{opHello, opHello, opHello, lease, lease, lease})
	}
	got := proxy.seen()
	if len(got) != 2 || string(got[0].ops) != want(opAcquire) || string(got[1].ops) != want(opRenew) {
		t.Fatalf("flights %v, want hellos and acquires %v, then hellos and renews %v", got, []byte(want(opAcquire)), []byte(want(opRenew)))
	}
	if got[0].reads != 1 || got[1].reads != 1 {
		t.Errorf("the flights arrived in %d and %d reads, want 1 each: one Write", got[0].reads, got[1].reads)
	}
	if e1 := ms[0].s.epochs(); fmt.Sprint(e1) != fmt.Sprint(e0) {
		t.Fatalf("epochs %v → %v across the redial", e0, e1)
	}
	if err := fatal.Load(); err != nil {
		t.Fatalf("session died: %v", err)
	}
}

// TestSessionFenceKillsEveryBackend: the namespaces of a session are one
// incarnation. A successor takes one of them; the fence on that one
// kills the other too, whose lease nobody took, and OnFatal fires once.
func TestSessionFenceKillsEveryBackend(t *testing.T) {
	addr := testServerAddr(t)
	var fatals atomic.Int32
	names := []string{uniqueNS(), uniqueNS()}
	ms, err := OpenSession(addr, names, nil, 16, Options{
		LeaseTTL: 300 * time.Millisecond,
		OnFatal:  func(error) { fatals.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ms[0].Close()
	defer ms[1].Close()
	ms[0].stopRenew() // the session stalls; both leases lapse
	succ, err := Open(addr, 16, Options{Namespace: names[1], LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Close()
	if err := ms[1].WriteAcked(0, []int64{1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("write to the namespace a successor took: %v, want ErrFenced", err)
	}
	if err := ms[0].WriteAcked(0, []int64{1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("write to the session's other namespace: %v, want ErrFenced", err)
	}
	ms[0].Read(0)
	ms[1].Read(0)
	if n := fatals.Load(); n != 1 {
		t.Fatalf("OnFatal fired %d times, want once", n)
	}
	if got := succ.Read(0); got != 0 {
		t.Fatalf("the successor's cell 0 = %d: the fenced write landed", got)
	}
}

// leases returns the epoch and holder of each namespace on srv.
func leases(srv *Server, names []string) (epochs, holders []uint64) {
	for _, name := range names {
		srv.mu.Lock()
		ns := srv.nss[name]
		srv.mu.Unlock()
		ns.mu.Lock()
		epochs, holders = append(epochs, ns.epoch), append(holders, ns.holderID)
		ns.mu.Unlock()
	}
	return epochs, holders
}

// TestDispatcherIsOneSession: a 4-shard dispatcher over net: is one
// connection holding four leases. Its Close releases all four at once: a
// successor waiting on them parks until then and gets all four, and
// after that one's Close a fail-fast successor acquires each at once.
func TestDispatcherIsOneSession(t *testing.T) {
	const shards = 4
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ns := uniqueNS()
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("%s.shard%d", ns, i)
	}
	spec := fmt.Sprintf("net:%s/%s?ttl=30s", addr, ns) // no lease lapses within the test
	cfg := dispatch.Config{Shards: shards, WorkersPerShard: 2, MaxBatch: 64, MaxJobs: 1024, Backend: spec}
	var runs atomic.Int64
	job := dispatch.Task{Fn: func(context.Context) error { runs.Add(1); return nil }}

	base := srvConns.Value()
	d1, err := dispatch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := srvConns.Value() - base; got != 1 {
		t.Errorf("amo_netmem_server_connections rose by %v for a %d-shard dispatcher, want 1", got, shards)
	}
	epochs, holders := leases(srv, names)
	for i := range names {
		if epochs[i] != 1 || holders[i] == 0 || holders[i] != holders[0] {
			t.Fatalf("leases after the open: epochs %v holders %v, want four held at epoch 1 by one client", epochs, holders)
		}
	}
	for range 100 {
		if _, err := d1.Do(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	d1.Flush()

	type opened struct {
		d   *dispatch.Dispatcher
		err error
		at  time.Time
	}
	next := make(chan opened, 1)
	go func() {
		d, err := dispatch.New(cfg)
		next <- opened{d, err, time.Now()}
	}()
	select {
	case o := <-next:
		t.Fatalf("a waiting successor opened beside a live incumbent: %v", o.err)
	case <-time.After(200 * time.Millisecond):
	}
	closed := time.Now()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	var o opened
	select {
	case o = <-next:
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting successor never opened after the release")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if waited := o.at.Sub(closed); waited > 5*time.Second {
		t.Errorf("the successor opened %s after Close: the leases lapsed, they were not released", waited)
	}
	if epochs, _ := leases(srv, names); fmt.Sprint(epochs) != "[2 2 2 2]" {
		t.Errorf("epochs after the takeover %v, want all four at 2", epochs)
	}
	if err := o.d.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Backend = spec + "&acquire=fail"
	d3, err := dispatch.New(cfg)
	if err != nil {
		t.Fatalf("a fail-fast successor after Close: %v", err)
	}
	for range 100 {
		if _, err := d3.Do(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	d3.Flush()
	if st := d3.Stats(); runs.Load() != 100 || st.Recovered != 100 {
		t.Errorf("ran %d payloads, recovered %d over the journal, want 100 and 100", runs.Load(), st.Recovered)
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherSessionSurvivesChaos: the proxy cuts a 4-shard
// dispatcher's one connection again and again mid-stream. Each redial
// re-attaches and renews all four namespaces — no epoch moves — and
// every job runs exactly once.
func TestDispatcherSessionSurvivesChaos(t *testing.T) {
	const (
		shards = 4
		n      = 4000
		cuts   = 8
	)
	srv := NewServer(ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := NewChaosProxy(addr, ChaosOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ns := uniqueNS()
	reconnects := cliReconnects.Value()
	d, err := dispatch.New(dispatch.Config{
		Shards: shards, WorkersPerShard: 2, MaxBatch: 64, MaxJobs: n, JournalBatch: 4,
		Backend: fmt.Sprintf("net:%s/%s?retries=20", proxy.Addr(), ns),
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]atomic.Int32, n)
	for c := range cuts {
		for i := c * n / cuts; i < (c+1)*n/cuts; i++ {
			if _, err := d.Do(context.Background(), dispatch.Task{Fn: func(context.Context) error { runs[i].Add(1); return nil }}); err != nil {
				t.Fatal(err)
			}
		}
		proxy.DropAll() // the chunk is in its rounds: its journal writes cross the cut
		d.Flush()
	}
	st := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times, want exactly once", i+1, c)
		}
	}
	if st.Duplicates != 0 {
		t.Fatalf("Stats().Duplicates = %d", st.Duplicates)
	}
	drops := proxy.Drops()
	for wait := time.Now(); cliReconnects.Value()-reconnects < uint64(drops) && time.Since(wait) < 5*time.Second; {
		time.Sleep(time.Millisecond) // a redial counts itself after its resends
	}
	if drops < cuts/2 || cliReconnects.Value()-reconnects < uint64(drops) {
		t.Errorf("%d reconnects for %d connections cut", cliReconnects.Value()-reconnects, drops)
	}
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("%s.shard%d", ns, i)
	}
	if epochs, _ := leases(srv, names); fmt.Sprint(epochs) != "[1 1 1 1]" {
		t.Errorf("epochs %v after the redials, want all four still at 1", epochs)
	}
}

// FuzzServerSession sends arbitrary frames after a hello: attaches,
// lease ops and register ops with arbitrary handles and epochs, and raw
// frames. The server must not panic, must answer every request once, in
// order, with a reply of the request's shape, and must admit no write
// the connection was not granted: its own lease model, kept from the
// replies, says which writes may land, and namespace b — leased to
// another client at epoch 1 before the fuzzed connection says anything —
// keeps its zeros unless the fuzzed connection was itself granted it.
func FuzzServerSession(f *testing.F) {
	// Instructions: an op selector, then its fields (sessionProgram); read
	// and write are a one-cell read_range and write_acked.
	const (
		hello, acquire, renew, release, read, write, writeAcked, readRange, sync, raw = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
		a, b                                                                          = 0, 1
	)
	for _, seed := range [][]byte{
		// The admit regression: granted epoch 1 on a, stamped on b.
		{hello, a, 1, 0, acquire, 0, 1, 100, 0, hello, b, 1, 0, writeAcked, 1, 1, 0, 0, 42},
		// A connection that never acquires, and a renew guessing the epoch.
		{hello, b, 1, 0, write, 0, 1, 0, 42, writeAcked, 0, 1, 0, 0, 42},
		{hello, b, 1, 0, renew, 0, 1, 1, writeAcked, 0, 1, 0, 0, 42},
		// A holder's life: acquire, write, read back, release, a stale write.
		{hello, a, 1, 0, acquire, 0, 1, 100, 1, writeAcked, 0, 1, 3, 2, 9, 8, 7, readRange, 0, 0, 16,
			release, 0, 1, write, 0, 1, 3, 5, sync, 0},
		// Two handles on one namespace; a re-acquire fences the first.
		{hello, a, 1, 0, hello, a, 1, 0, acquire, 0, 1, 100, 0, acquire, 1, 1, 100, 0, write, 0, 1, 0, 1, write, 1, 2, 0, 1},
		// Waiting on b's lease until it lapses, then writing under the grant.
		{hello, b, 1, 0, acquire, 0, 2, 100, 1, writeAcked, 0, 2, 0, 0, 42},
		// Unknown ops, a reserved one, handles nothing attached, a bad hello.
		{raw, 99, 3, 1, 2, 3, raw, 9, 0, read, 4, 0, hello, 3, 1, 0, hello, a, 0, 0, readRange, 0, 15, 19},
		// A stamped hello creates a, a re-hello stamps nothing: cell 0 reads 9.
		{hello, a, 1, 9, hello, a, 1, 5, read, 1, 0, hello, b, 1, 7, read, 2, 0},
		// A v2 hello, a stamp short, then a write on the handle it kept.
		{raw, 1, 10, 1, 0, 'a', 16, 0, 0, 0, 0, 0, 0, 0, writeAcked, 0, 1, 0, 0, 42},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		srv := NewServer(ServerOptions{DefaultTTL: 20 * time.Millisecond, MaxTTL: 20 * time.Millisecond})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var idb [8]byte
		rand.Read(idb[:])
		victim := dialRaw(t, addr)
		defer victim.nc.Close() // before the server hangs up on it
		victim.do(opHello, helloP("b", 16, 0))
		if rop, _, _ := victim.do(opAcquire, acquireP(0, binary.LittleEndian.Uint64(idb[:])|1<<63, 100, false)); rop != opAcquireOK {
			t.Fatalf("victim's acquire: op %d", rop)
		}
		reqs := sessionProgram(prog)
		checkSession(t, addr, reqs)
		if rop, _, rp := victim.do(opReadRange, wire.AppendU32(wire.AppendU64([]byte{0}, 0), 16)); rop == opValues {
			for i := range 16 {
				if v := binary.LittleEndian.Uint64(rp[8*i:]); v != 0 && !grantedB(reqs) {
					t.Fatalf("b's cell %d = %d, and the fuzzed connection was never granted b", i, v)
				}
			}
		}
	})
}

// request is one frame of a fuzzed session, and what came back.
type request struct {
	op      byte
	payload []byte
	rop     byte
	rp      []byte
}

// sessionProgram decodes a fuzz input into at most 64 requests: an op
// selector byte, then the fields it takes, missing bytes read as 0.
func sessionProgram(prog []byte) []*request {
	at := 0
	u8 := func() byte {
		if at >= len(prog) {
			return 0
		}
		at++
		return prog[at-1]
	}
	names := []string{"a", "b", "c", "x/y"}
	var out []*request
	for at < len(prog) && len(out) < 64 {
		var r request
		switch u8() % 10 {
		case 0:
			name, size := names[u8()%4], uint64(u8())
			if size%4 != 0 {
				size = 16
			}
			r = request{op: opHello, payload: helloP(name, size, int64(u8()))}
		case 1:
			r = request{op: opAcquire, payload: acquireP(u8()%5, uint64(u8()%3), uint64(u8()), u8()&1 != 0)}
		case 2:
			r = request{op: opRenew, payload: renewP(u8()%5, uint64(u8()%3), uint64(u8()%4))}
		case 3:
			r = request{op: opRelease, payload: wire.AppendU64([]byte{u8() % 5}, uint64(u8()%4))}
		case 4:
			r = request{op: opReadRange, payload: wire.AppendU32(wire.AppendU64([]byte{u8() % 5}, uint64(u8()%20)), 1)}
		case 5:
			h, epoch, addr := u8()%5, uint64(u8()%4), uint64(u8()%20)
			r = request{op: opWriteAcked, payload: writeAckedP(h, epoch, addr, int64(u8()))}
		case 6:
			h, epoch, addr, n := u8()%5, uint64(u8()%4), uint64(u8()%20), int(u8()%3)+1
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(u8())
			}
			r = request{op: opWriteAcked, payload: writeAckedP(h, epoch, addr, vals...)}
		case 7:
			r = request{op: opReadRange, payload: wire.AppendU32(wire.AppendU64([]byte{u8() % 5}, uint64(u8()%20)), uint32(u8()%20))}
		case 8:
			r = request{op: opSync, payload: []byte{u8() % 5}}
		case 9:
			r.op = u8()
			r.payload = make([]byte, u8()%26)
			for i := range r.payload {
				r.payload[i] = u8()
			}
		}
		out = append(out, &r)
	}
	return out
}

// checkSession sends reqs on one connection in one write, and a sentinel
// behind them — a one-cell range read on a handle no hello reaches,
// whose error reply must come next after theirs — and checks the replies
// against the shapes and the lease model. A waiting acquire parks for a
// lease's TTL at most: nothing renews one while its connection's requests
// queue.
func checkSession(t *testing.T, addr string, reqs []*request) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetLinger(0)
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	var frames []byte
	sentinel := &request{op: opReadRange, payload: wire.AppendU32(wire.AppendU64([]byte{maxHandles - 1}, 0), 1)}
	for i, r := range append(reqs, sentinel) {
		at := len(frames)
		frames = append(wire.AppendHeader(frames, r.op, uint32(i+1), 0), r.payload...)
		wire.EndFrame(frames, at)
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(nc, 4<<10)
	for i, r := range reqs {
		op, seq, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("request %d (op %d): no reply: %v", i+1, r.op, err)
		}
		if seq != uint32(i+1) {
			t.Fatalf("reply seq %d, want %d: replies out of request order", seq, i+1)
		}
		r.rop, r.rp = op, append([]byte(nil), payload...)
	}
	if op, seq, _, err := fr.Next(); err != nil || op != opErr || seq != uint32(len(reqs)+1) {
		t.Fatalf("the sentinel's reply: op %d seq %d err %v, want an error at seq %d", op, seq, err, len(reqs)+1)
	}

	// The lease model: per handle, the namespace and the epoch granted or
	// renewed through it; per namespace, the last epoch this connection
	// saw granted and whether that grant still holds.
	type hnd struct {
		name    string
		granted uint64
	}
	var (
		handles []hnd
		cur     = map[string]uint64{}
		held    = map[string]bool{}
		created = map[string]bool{"b": true} // the victim's hello made b
	)
	for i, r := range reqs {
		if r.rop == opErr {
			d := wire.Decoder{B: r.rp}
			d.U16()
			d.Str()
			if d.Done() != nil {
				t.Fatalf("request %d: malformed error reply %x", i+1, r.rp)
			}
			if r.op == opHello && len(handles) < maxHandles {
				handles = append(handles, hnd{})
			}
			continue
		}
		var h *hnd
		if r.op != opHello && len(r.payload) > 0 && int(r.payload[0]) < len(handles) {
			h = &handles[r.payload[0]]
		}
		if r.op != opHello && (h == nil || h.name == "") {
			t.Fatalf("request %d: op %d on handle %x nothing attached answered op %d", i+1, r.op, r.payload, r.rop)
		}
		u64 := func(at int) uint64 { return binary.LittleEndian.Uint64(r.payload[at:]) }
		want, size := opAck, 0
		switch r.op {
		case opHello:
			want, size = opHelloOK, 10
			d := wire.Decoder{B: r.payload}
			name := d.Str()
			if len(r.rp) == 10 {
				if int(r.rp[1]) != len(handles) {
					t.Fatalf("request %d: hello answered handle %d, want %d", i+1, r.rp[1], len(handles))
				}
				// Only the first hello of a name creates its namespace, and
				// reports a fresh one's cell 0 as 0 whatever it stamped.
				if reopened := r.rp[0] != 0; reopened != created[name] || !reopened && binary.LittleEndian.Uint64(r.rp[2:]) != 0 {
					t.Fatalf("request %d: hello of %q answered reopened %v, cell 0 %d; created before: %v", i+1, name, reopened, binary.LittleEndian.Uint64(r.rp[2:]), created[name])
				}
				created[name] = true
			}
			handles = append(handles, hnd{name: name})
		case opAcquire:
			want, size = opAcquireOK, 16
			if len(r.rp) == 16 {
				e := binary.LittleEndian.Uint64(r.rp)
				h.granted, cur[h.name], held[h.name] = e, e, true
			}
		case opRenew:
			if e := u64(9); e != cur[h.name] || !held[h.name] {
				t.Fatalf("request %d: renew of epoch %d on %q admitted; this connection holds %d (held %v)", i+1, e, h.name, cur[h.name], held[h.name])
			}
			h.granted = u64(9)
		case opRelease:
			if e := u64(1); e == h.granted {
				h.granted = 0
				held[h.name] = held[h.name] && e != cur[h.name]
			}
		case opReadRange:
			want, size = opValues, 8*int(binary.LittleEndian.Uint32(r.payload[9:]))
		case opWriteAcked:
			if e := u64(1); e == 0 || e != h.granted || e != cur[h.name] || !held[h.name] {
				t.Fatalf("request %d: write stamped %d on %q admitted; the handle was granted %d, the connection's lease is at %d (held %v)",
					i+1, e, h.name, h.granted, cur[h.name], held[h.name])
			}
		case opSync:
		default:
			t.Fatalf("request %d: unknown op %d answered op %d", i+1, r.op, r.rop)
		}
		if r.rop != want || len(r.rp) != size {
			t.Fatalf("request %d: op %d answered op %d with %d bytes, want op %d with %d", i+1, r.op, r.rop, len(r.rp), want, size)
		}
	}
}

// grantedB reports whether the fuzzed connection was granted b: an
// acquire answered with a grant on a handle whose hello named b.
func grantedB(reqs []*request) bool {
	var names []string
	for _, r := range reqs {
		switch {
		case r.op == opHello && len(names) < maxHandles:
			d := wire.Decoder{B: r.payload}
			names = append(names, d.Str())
		case r.op == opAcquire && r.rop == opAcquireOK && int(r.payload[0]) < len(names) && names[r.payload[0]] == "b":
			return true
		}
	}
	return false
}
