package jobd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/wire"
)

// Tests for the wire path's reuse: recycled call slots, the outbound
// byte queue and its overflow rules, the goodbye ordering, interned
// names, and the allocation budget all of that buys.

// TestWirePathAllocs is the allocation gate next to the code: the
// benchmark's jobd shape — in-process server, 2 connections × 16
// closed-loop submitters, 32-byte payloads, each connection subscribed to
// its own tenant — must stay within 0.5 heap allocations per job from
// Client.Submit to the event handler, on both sides of
// membackend.Volatile: the default backend (what jobd_pipelined runs: no
// journal, no log) and mmap: (what jobd_durable_open runs: claim, group
// commit, one log commit per tick). The budget (DESIGN.md §12): nothing
// per job — the payload is the bytes of the read chunk the frame landed
// in, the job a slot of the reader's slab, and it is the dispatcher's
// task, so nothing is allocated to run or resolve it, or to log and
// journal it — plus a chunk per ~430 frames, a slab per 64 jobs, and a
// fraction for rounds, metrics and amortised growth. The event count is
// the other half of the gate: exactly one event per admitted job.
func TestWirePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	t.Run("volatile", func(t *testing.T) { wirePathAllocs(t, "") })
	t.Run("durable", func(t *testing.T) { wirePathAllocs(t, "mmap:"+filepath.Join(t.TempDir(), "jobd")) })
}

func wirePathAllocs(t *testing.T, backend string) {
	const (
		conns      = 2
		submitters = 16
		warm       = 8000
		jobs       = 50000
	)
	reg := NewRegistry()
	reg.Register("bench", 1, func(context.Context, []byte) error { return nil })
	tenants := [conns]string{"tenant-a", "tenant-b"}
	_, addr := testServer(t, Options{
		Registry:     reg,
		Backend:      backend,
		Shards:       2,
		MaxBatch:     256,
		MaxJobs:      1 << 17,
		JournalBatch: 16,
		Tenants:      map[string]TenantLimits{tenants[0]: {}, tenants[1]: {}},
	})
	var events atomic.Int64
	clients := make([]*Client, conns)
	for i := range clients {
		clients[i] = testClient(t, addr, ClientOptions{Name: "alloc-gate"})
		if err := clients[i].Subscribe(tenants[i], func(Event) { events.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n int64) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for i, c := range clients {
			for k := 0; k < submitters; k++ {
				wg.Add(1)
				go func(c *Client, tenant string) {
					defer wg.Done()
					payload := make([]byte, 32)
					for next.Add(1) <= n {
						if _, err := c.Submit(tenant, "bench", 1, payload, SubmitOptions{}); err != nil {
							t.Error(err)
							return
						}
					}
				}(c, tenants[i])
			}
		}
		wg.Wait()
	}
	run(warm)
	waitFor(t, 20*time.Second, func() bool { return events.Load() == warm }, "warm-up events")

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(jobs)
	waitFor(t, 60*time.Second, func() bool { return events.Load() == warm+jobs }, "events")
	runtime.ReadMemStats(&m1)
	perJob := float64(m1.Mallocs-m0.Mallocs) / jobs
	t.Logf("%.2f allocations per job over %d jobs", perJob, jobs)
	if perJob > 0.5 {
		t.Errorf("submit → ack → run → event allocates %.2f times per job, budget 0.5", perJob)
	}
}

// fakeJobd speaks just enough of the protocol to misbehave on purpose:
// every connection answers its first `serve` submits (id = idBase +
// the u64 marker in the payload), swallows the next `swallow` without a
// reply, and hangs up — so each connection dies with submits in flight.
type fakeJobd struct {
	ln             net.Listener
	serve, swallow int

	mu      sync.Mutex
	seen    map[uint64]int // marker → submit frames received, all connections
	replied map[uint64]bool
	wg      sync.WaitGroup
}

const idBase = 1 << 40

func newFakeJobd(t *testing.T, serve, swallow int) *fakeJobd {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeJobd{ln: ln, serve: serve, swallow: swallow, seen: map[uint64]int{}, replied: map[uint64]bool{}}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go f.conn(nc)
		}
	}()
	t.Cleanup(func() { ln.Close(); f.wg.Wait() })
	return f
}

func (f *fakeJobd) conn(nc net.Conn) {
	defer f.wg.Done()
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	r, w := wire.NewFrameReader(nc, readChunk), bufio.NewWriter(nc)
	for n := 0; n < f.serve+f.swallow; {
		if n >= f.serve {
			// Swallowing: hang up after `swallow` submits or 50 ms of
			// silence, whichever is first — at the end of a test fewer
			// callers than that may be left to send one.
			nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		}
		op, seq, payload, err := r.Next()
		if err != nil {
			return
		}
		switch op {
		case jopHello:
			wire.WriteFrame(w, jopHelloOK, seq, wire.AppendStr(wire.AppendU32(nil, protoVersion), "fake"))
		case jopSubmit:
			var d desc
			if err := d.decode(payload, nil, false); err != nil || len(d.payload) != 8 {
				return
			}
			dec := wire.Decoder{B: d.payload}
			marker := dec.U64()
			f.mu.Lock()
			f.seen[marker]++
			if n < f.serve {
				f.replied[marker] = true
			}
			f.mu.Unlock()
			if n < f.serve {
				wire.WriteFrame(w, jopSubmitOK, seq, wire.AppendU64(nil, idBase+marker))
			}
			n++
		default:
			return
		}
		if r.Buffered() == 0 {
			w.Flush()
		}
	}
	w.Flush()
}

// TestConnDropFailsInFlight: a connection that drops with submits in
// flight fails every one of them with ErrConnLost and resends none, and
// a recycled call slot never hears from the connection it served before
// — every submit that succeeds, on whichever connection, gets exactly
// its own id. Submitters keep calling through twelve drops and redials,
// so slots are recycled while failPending is still walking the queue
// they came from. Run under -race -count=10 in CI.
func TestConnDropFailsInFlight(t *testing.T) {
	const (
		submitters = 8
		perConn    = 40 // served per connection...
		swallowed  = 6  // ...then this many swallowed, then the hang-up
		wantOK     = 12 * perConn
	)
	f := newFakeJobd(t, perConn, swallowed)
	c := testClient(t, f.ln.Addr().String(), ClientOptions{
		Redial: true, RedialAttempts: 50, RedialBackoff: time.Millisecond,
	})
	type outcome struct {
		id  uint64
		err error
	}
	var mu sync.Mutex
	results := map[uint64]outcome{}
	var next, okCount atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for okCount.Load() < wantOK {
				marker := next.Add(1)
				id, err := c.Submit("t", "x", 1, wire.AppendU64(nil, marker), SubmitOptions{})
				if err == nil {
					okCount.Add(1)
				} else if !errors.Is(err, ErrConnLost) {
					t.Errorf("marker %d: %v, want ErrConnLost", marker, err)
					return
				} else {
					time.Sleep(100 * time.Microsecond) // disconnected: let the redial happen
				}
				mu.Lock()
				results[marker] = outcome{id, err}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	f.mu.Lock()
	defer f.mu.Unlock()
	lostInFlight := 0
	for marker, o := range results {
		seen := f.seen[marker]
		if seen > 1 {
			t.Errorf("marker %d reached the server %d times: a submit was resent", marker, seen)
		}
		switch {
		case o.err == nil && (o.id != idBase+marker || !f.replied[marker]):
			t.Errorf("marker %d got id %#x (server replied: %v): a reply reached the wrong call", marker, o.id, f.replied[marker])
		case o.err != nil && f.replied[marker]:
			// The reply was written but the hang-up beat the client's
			// reader to it: lost with the connection, which is allowed —
			// what is not allowed is resending, checked above.
		case o.err != nil && seen == 1:
			lostInFlight++
		}
	}
	for marker := range f.seen {
		if _, ok := results[marker]; !ok {
			t.Errorf("server saw marker %d, which no Submit call owns", marker)
		}
	}
	if lostInFlight == 0 {
		t.Error("no submit was in flight at a drop: the test did not exercise the failure path")
	}
	t.Logf("%d calls, %d acked, %d failed in flight across %d+ connections", len(results), okCount.Load(), lostInFlight, wantOK/perConn)
}

// TestCloseDuringRedial: a Close that lands while the reader goroutine is
// inside a redial's dial + hello must win — the redialed connection is
// hung up, not installed. The fake's second connection withholds its
// hello reply until Close has returned, then completes the handshake and
// the resubscribe and pushes an event: it must see the hang-up within a
// second, and the handler must never fire. (Installed, a closed client
// keeps the connection, a goroutine and its handlers alive until the
// server hangs up.)
func TestCloseDuringRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	helloSeen, closeReturned := make(chan struct{}), make(chan struct{})
	hungUp := make(chan error, 1) // the second connection's read error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for conn := 1; conn <= 2; conn++ {
			nc, err := ln.Accept()
			if err != nil {
				hungUp <- err
				return
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			r, w := wire.NewFrameReader(nc, readChunk), bufio.NewWriter(nc)
			for {
				op, seq, _, err := r.Next()
				if err != nil {
					hungUp <- err
					return
				}
				if op == jopHello {
					if conn == 2 {
						close(helloSeen)
						<-closeReturned
						nc.SetDeadline(time.Now().Add(time.Second))
					}
					wire.WriteFrame(w, jopHelloOK, seq, wire.AppendStr(wire.AppendU32(nil, protoVersion), "fake"))
					w.Flush()
					continue
				}
				// A (re)subscribe: ack it. The first connection then drops;
				// the second streams an event and waits for the hang-up.
				wire.WriteFrame(w, jopAck, seq, nil)
				if conn == 2 {
					ev := append(wire.AppendU64(wire.AppendStr(nil, "t"), 7), evOK)
					wire.WriteFrame(w, jopEvent, 0, wire.AppendStr(wire.AppendStr(ev, "x"), ""))
				}
				w.Flush()
				if conn == 1 {
					nc.Close()
					break
				}
			}
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })

	c := testClient(t, ln.Addr().String(), ClientOptions{Redial: true, RedialBackoff: time.Millisecond})
	var fired atomic.Int32
	if err := c.Subscribe("t", func(Event) { fired.Add(1) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-helloSeen:
	case err := <-hungUp:
		t.Fatalf("fake server: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the client never redialed")
	}
	c.Close()
	close(closeReturned)
	if err := <-hungUp; errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a closed client installed its redialed connection: no hang-up within 1s of the hello reply")
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d events delivered to a closed client's handler", n)
	}
}

// rawHello dials addr, completes the hello exchange and returns the
// connection with a reader positioned after the hello reply.
func rawHello(t *testing.T, addr string) (net.Conn, *wire.FrameReader) {
	t.Helper()
	nc, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	p := wire.AppendStr(wire.AppendU32(nil, protoVersion), "raw")
	if _, err := nc.Write(append(wire.AppendHeader(nil, jopHello, 1, len(p)), p...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := wire.NewFrameReader(nc, readChunk)
	if op, _, _, err := r.Next(); err != nil || op != jopHelloOK {
		t.Fatalf("hello: op %d, %v", op, err)
	}
	return nc, r
}

// TestOutboundOverflow: the two overflow rules of the outbound queue,
// each against a peer that stops reading. A full queue DROPS an event
// and counts it (amo_jobd_events_dropped_total) — the stalled subscriber
// loses completions, the connection survives, and a healthy subscriber
// to the same tenant still receives every one. A full queue CUTS the
// connection on a reply: losing one would break in-order pipelining.
func TestOutboundOverflow(t *testing.T) {
	reg := NewRegistry()
	bigErr := errors.New(strings.Repeat("e", 2048)) // fat events fill the socket buffers sooner
	reg.Register("fail", 1, func(context.Context, []byte) error { return bigErr })
	_, addr := testServer(t, Options{
		Registry: reg,
		MaxJobs:  1 << 18,
		Tenants:  map[string]TenantLimits{"t": {}},
	})

	t.Run("event_dropped", func(t *testing.T) {
		stalled, _ := rawHello(t, addr)
		sub := wire.AppendStr(nil, "t")
		if _, err := stalled.Write(append(wire.AppendHeader(nil, jopSubscribe, 2, len(sub)), sub...)); err != nil {
			t.Fatal(err)
		}
		// ...and never reads again.

		healthy := testClient(t, addr, ClientOptions{})
		var got atomic.Int64
		if err := healthy.Subscribe("t", func(Event) { got.Add(1) }); err != nil {
			t.Fatal(err)
		}
		dropped0 := jdEvDropped.Value()
		submitted := int64(0)
		deadline := time.Now().Add(60 * time.Second)
		for jdEvDropped.Value() == dropped0 {
			if time.Now().After(deadline) {
				t.Fatalf("no event dropped after %d jobs against a subscriber that stopped reading", submitted)
			}
			for i := 0; i < 512; i++ {
				if _, err := healthy.Submit("t", "fail", 1, nil, SubmitOptions{}); err != nil {
					t.Fatal(err)
				}
				submitted++
			}
		}
		waitFor(t, 30*time.Second, func() bool { return got.Load() == submitted },
			"the healthy subscriber's events (a stalled one must not cost it any)")
		// The stalled connection was not cut for it: it still drains.
		stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.CopyN(io.Discard, stalled, 1<<16); err != nil {
			t.Fatalf("stalled subscriber's connection did not survive its dropped events: %v", err)
		}
		t.Logf("%d jobs, %d events dropped", submitted, jdEvDropped.Value()-dropped0)
	})

	t.Run("reply_cuts", func(t *testing.T) {
		nc, _ := rawHello(t, addr)
		// Pipeline stats requests (fat replies) and never read one.
		batch := make([]byte, 0, 256*wire.HeaderSize)
		for i := 0; i < 256; i++ {
			batch = wire.AppendHeader(batch, jopStats, uint32(10+i), 0)
		}
		nc.SetWriteDeadline(time.Now().Add(60 * time.Second))
		var werr error
		for werr == nil {
			_, werr = nc.Write(batch)
		}
		var nerr net.Error
		if errors.As(werr, &nerr) && nerr.Timeout() {
			t.Fatal("a pipelining client that never reads was never cut")
		}
		// The server is unharmed.
		if err := testClient(t, addr, ClientOptions{}).Ping(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestProtocolErrorGoodbye: after a protocol error the reader queues the
// jopErr and the WRITER hangs up once it is written, so the client reads
// the error and then a clean EOF — never a hang-up that swallowed it.
func TestProtocolErrorGoodbye(t *testing.T) {
	_, addr := testServer(t, Options{})
	for name, bad := range map[string][]byte{
		"unknown_op":       wire.AppendHeader(nil, 99, 7, 0),
		"truncated_submit": append(wire.AppendHeader(nil, jopSubmit, 7, 3), 1, 2, 3),
		"trailing_bytes":   append(wire.AppendHeader(nil, jopPing, 7, 1), 0),
		"duplicate_hello":  wire.AppendHeader(nil, jopHello, 7, 0),
	} {
		t.Run(name, func(t *testing.T) {
			nc, r := rawHello(t, addr)
			// The bad frame is the last thing sent: input the server never
			// read would turn its FIN into a reset.
			if _, err := nc.Write(bad); err != nil {
				t.Fatal(err)
			}
			op, seq, payload, err := r.Next()
			if err != nil || op != jopErr || seq != 7 {
				t.Fatalf("got op %d seq %d (%v), want the jopErr for seq 7", op, seq, err)
			}
			dec := wire.Decoder{B: payload}
			if code, msg := dec.U16(), dec.Str(); code != codeProto || msg == "" || dec.Done() != nil {
				t.Fatalf("error frame: code %d %q", code, msg)
			}
			if _, _, _, err := r.Next(); err != io.EOF {
				t.Fatalf("after the error frame: %v, want a clean hang-up (io.EOF)", err)
			}
		})
	}
}

// TestNamesSurviveBufferReuse: names decoded out of the read buffer are
// copies on both sides. Frames alternate between many tenants and tasks
// of different lengths, so every frame overwrites the bytes the previous
// names were decoded from; each event must still carry the tenant and
// task its job was submitted under, the server's ledger must be keyed by
// intact tenant names, and 10 000 distinct client-supplied names must
// leave nothing behind.
func TestNamesSurviveBufferReuse(t *testing.T) {
	const (
		nTenants = 12
		nTasks   = 7
		jobs     = 3000
	)
	reg := NewRegistry()
	var tenants, tasks []string
	for i := 0; i < nTasks; i++ {
		tasks = append(tasks, "task-"+strings.Repeat("k", i*3)+fmt.Sprint(i))
		reg.Register(tasks[i], 1, func(context.Context, []byte) error { return nil })
	}
	lims := map[string]TenantLimits{}
	for i := 0; i < nTenants; i++ {
		tenants = append(tenants, strings.Repeat("t", 1+i*2)+fmt.Sprint(i))
		lims[tenants[i]] = TenantLimits{}
	}
	_, addr := testServer(t, Options{Registry: reg, MaxJobs: 1 << 15, Tenants: lims})
	c := testClient(t, addr, ClientOptions{})

	type name struct{ tenant, task string }
	var mu sync.Mutex
	events := map[uint64]name{}
	for _, tn := range tenants {
		if err := c.Subscribe(tn, func(e Event) {
			mu.Lock()
			events[e.ID] = name{e.Tenant, e.Task}
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]name{}
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < jobs; i += 4 {
				n := name{tenants[i%nTenants], tasks[(i/3)%nTasks]}
				id, err := c.Submit(n.tenant, n.task, 1, []byte{byte(i)}, SubmitOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				wmu.Lock()
				want[id] = n
				wmu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, 30*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(events) == jobs }, "all events")
	for id, n := range want {
		if events[id] != n {
			t.Fatalf("job %d submitted as %+v, its event says %+v", id, n, events[id])
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != nTenants {
		t.Fatalf("ledger has %d tenants, want %d: %v", len(st.Tenants), nTenants, st.Tenants)
	}
	for _, tn := range tenants {
		if st.Tenants[tn].Admitted == 0 {
			t.Fatalf("ledger lost tenant %q: %v", tn, st.Tenants)
		}
	}

	// Distinct names: rejected (unknown tenant, unknown task), so the
	// only place they could pile up is the connection's name memo.
	flood := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tenant, task := fmt.Sprintf("no-such-tenant-%032d", i), fmt.Sprintf("no-such-task-%032d", i)
			if i%2 == 0 {
				tenant = tenants[0] // reach the task lookup too
			}
			if _, err := c.Submit(tenant, task, 1, nil, SubmitOptions{}); err == nil {
				t.Fatal("unknown name admitted")
			}
		}
	}
	flood(0, 500) // whatever warms up on the rejection path does so here
	before := liveHeap()
	flood(500, 10500)
	// 10 000 names × 2 × ~48 bytes retained would be about 1 MiB with
	// their headers; a bounded memo holds a few KiB.
	if grown := int64(liveHeap()) - int64(before); grown > 256<<10 {
		t.Errorf("heap grew %d KiB across 10000 distinct client-supplied names", grown>>10)
	}
	if st2, err := c.Stats(); err != nil || len(st2.Tenants) != nTenants {
		t.Fatalf("ledger grew to %d tenants from rejected names (%v)", len(st2.Tenants), err)
	}
}

// liveHeap is the heap still reachable after two collections (the second
// frees what sync.Pools moved to their victim caches in the first).
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPayloadSurvivesChunkReuse: a submit's payload is bytes of the
// connection's read chunk, not a copy, so the chunk must never be
// rewritten under it. A gated task looks at its payload only after 10 000
// later frames — submits whose payloads would overwrite it byte for byte,
// and pings — have crossed the same connection. The gate holds the one
// shard's round open, so the fills resolve in one burst behind it and the
// subscriber may lose events past connOutDepth by contract: every fill is
// counted where it runs, and events only together with the drops.
func TestPayloadSurvivesChunkReuse(t *testing.T) {
	want := make([]byte, 300)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	gate := make(chan struct{})
	seen := make(chan []byte, 1)
	reg := NewRegistry()
	reg.Register("gated", 1, func(_ context.Context, p []byte) error {
		<-gate
		// Appending must not reach the frame behind this one either.
		_ = append(p, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee)
		seen <- append([]byte(nil), p...)
		return nil
	})
	var fills, neighbours atomic.Int64
	reg.Register("fill", 1, func(_ context.Context, p []byte) error {
		fills.Add(1)
		for _, b := range p {
			if b != 0xee {
				neighbours.Add(1)
				break
			}
		}
		return nil
	})
	_, addr := testServer(t, Options{Registry: reg, Workers: 4, Tenants: map[string]TenantLimits{"t": {}}})
	c := testClient(t, addr, ClientOptions{})
	var events atomic.Int64
	dropped0 := jdEvDropped.Value()
	if err := c.Subscribe("t", func(Event) { events.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("t", "gated", 1, want, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	const later = 10000
	fill := make([]byte, len(want))
	for i := range fill {
		fill[i] = 0xee
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < later; i += 8 {
				var err error
				if i%4 == 3 {
					err = c.Ping()
				} else {
					_, err = c.Submit("t", "fill", 1, fill, SubmitOptions{})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(gate)
	select {
	case got := <-seen:
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("payload byte %d = %#x, submitted %#x: the read chunk was rewritten under a pending job", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("payload is %d bytes, submitted %d", len(got), len(want))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the gated task never ran")
	}
	const jobs = 1 + later - later/4
	waitFor(t, 30*time.Second, func() bool {
		return fills.Load() == jobs-1 && events.Load()+int64(jdEvDropped.Value()-dropped0) == jobs
	}, "every fill run and every event delivered or counted dropped")
	if n := neighbours.Load(); n != 0 {
		t.Fatalf("%d later payloads were not the bytes submitted", n)
	}
}

// TestConnReadMemoryFollowsTheConnection: what a connection's reader
// holds is sized by the connection, not by the biggest frame it ever
// read. One MaxPayload submit gets a chunk of its own, which dies with
// the job; a reader that grew its one buffer to fit would hold the MiB for
// the life of the connection.
func TestConnReadMemoryFollowsTheConnection(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation's shadow allocations drown a 64 KiB bound")
	}
	_, addr := testServer(t, Options{Registry: noopRegistry(), Tenants: map[string]TenantLimits{"t": {}}})
	c := testClient(t, addr, ClientOptions{})
	var events atomic.Int64
	if err := c.Subscribe("t", func(Event) { events.Add(1) }); err != nil {
		t.Fatal(err)
	}
	submitted := int64(0)
	small := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Submit("t", "noop", 1, []byte("small"), SubmitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		submitted += int64(n)
		waitFor(t, 30*time.Second, func() bool { return events.Load() == submitted }, "events")
	}
	small(2000) // more than a chunk of them: whatever grows once has grown
	before := liveHeap()
	if _, err := c.Submit("t", "noop", 1, make([]byte, 1<<20), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	submitted++
	small(100)
	if grown := int64(liveHeap()) - int64(before); grown > 2*readChunk {
		t.Errorf("live heap grew %d KiB across one 1 MiB submit and 100 small ones, want at most two read chunks (%d KiB)", grown>>10, 2*readChunk>>10)
	}
}

// TestRedialKeepsBytesBehindAck: what the socket delivers behind the last
// handshake reply belongs to the connection's reader, not to a buffer the
// handshake throws away. A tick writes acks and events in one Write, so on
// a redial with a busy tenant events sit right behind the resubscribe's
// ack — whole, or cut anywhere. The scripted server answers the
// resubscribe with ack + event in one Write (and, split, the event's
// second half in a later one); the handler must see the event.
func TestRedialKeepsBytesBehindAck(t *testing.T) {
	for _, split := range []bool{false, true} {
		name := "one_write"
		if split {
			name = "event_split"
		}
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for conn := 1; conn <= 2; conn++ {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					defer nc.Close()
					nc.SetDeadline(time.Now().Add(20 * time.Second))
					r := wire.NewFrameReader(nc, readChunk)
					for {
						op, seq, _, err := r.Next()
						if err != nil {
							return // conn 2: the client closed at the end of the test
						}
						if op == jopHello {
							p := wire.AppendStr(wire.AppendU32(nil, protoVersion), "fake")
							nc.Write(append(wire.AppendHeader(nil, jopHelloOK, seq, len(p)), p...))
							continue
						}
						// A (re)subscribe. The first connection acks it and drops.
						out := wire.AppendHeader(nil, jopAck, seq, 0)
						if conn == 1 {
							nc.Write(out)
							nc.Close()
							break
						}
						ackLen := len(out)
						ev := wire.AppendStr(wire.AppendStr(append(wire.AppendU64(wire.AppendStr(nil, "t"), 7), evOK), "x"), "")
						out = append(wire.AppendHeader(out, jopEvent, 0, len(ev)), ev...)
						if !split {
							nc.Write(out)
							continue
						}
						cut := ackLen + (len(out)-ackLen)/2
						nc.Write(out[:cut])
						time.Sleep(50 * time.Millisecond) // the handshake has returned on the ack by now
						nc.Write(out[cut:])
					}
				}
			}()
			t.Cleanup(func() { ln.Close(); wg.Wait() })

			c := testClient(t, ln.Addr().String(), ClientOptions{Redial: true, RedialBackoff: time.Millisecond})
			got := make(chan Event, 4)
			if err := c.Subscribe("t", func(e Event) { got <- e }); err != nil {
				t.Fatal(err)
			}
			select {
			case e := <-got:
				if e.Tenant != "t" || e.ID != 7 || e.Task != "x" || e.Status != StatusOK {
					t.Fatalf("event = %+v", e)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the event written behind the resubscribe's ack never reached the handler")
			}
		})
	}
}

// TestRedialDeliversEventsBetweenResubscribes: a redial's resubscribe
// acks are replies like any other, matched by the reader that runs from
// the connection's first byte, so a completion the server streams
// between two of them — for the tenant whose resubscribe has landed —
// reaches its handler. The scripted server acks the first resubscribe,
// sends an event for that tenant, then acks the second.
func TestRedialDeliversEventsBetweenResubscribes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for conn := 1; conn <= 2; conn++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(20 * time.Second))
			r, w := wire.NewFrameReader(nc, readChunk), bufio.NewWriter(nc)
			for subs := 0; subs < 2; {
				op, seq, payload, err := r.Next()
				if err != nil {
					return // conn 2: the client closed at the end of the test
				}
				if op == jopHello {
					wire.WriteFrame(w, jopHelloOK, seq, wire.AppendStr(wire.AppendU32(nil, protoVersion), "fake"))
					w.Flush()
					continue
				}
				subs++
				wire.WriteFrame(w, jopAck, seq, nil)
				if conn == 2 && subs == 1 {
					tenant := (&wire.Decoder{B: payload}).Str()
					ev := append(wire.AppendU64(wire.AppendStr(nil, tenant), 7), evOK)
					wire.WriteFrame(w, jopEvent, 0, wire.AppendStr(wire.AppendStr(ev, "x"), ""))
				}
				w.Flush()
			}
			if conn == 1 {
				nc.Close() // both subscribed: drop, and the client redials
			} else {
				r.Next() // hold the connection until the client hangs up
			}
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })

	c := testClient(t, ln.Addr().String(), ClientOptions{Redial: true, RedialBackoff: time.Millisecond})
	got := make(chan Event, 4)
	for _, tenant := range []string{"a", "b"} {
		if err := c.Subscribe(tenant, func(e Event) { got <- e }); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case e := <-got:
		if e.ID != 7 || e.Task != "x" || (e.Tenant != "a" && e.Tenant != "b") {
			t.Fatalf("event = %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the event sent between the resubscribe acks never reached its handler")
	}
}
