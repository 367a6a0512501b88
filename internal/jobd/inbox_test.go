package jobd

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"atmostonce/internal/wire"
)

// Tests of the core loop's inbox, with the server stepped by hand: take
// and turn are called by the test, and no core loop runs.

// TestInboxBackpressure: a reader that pipelines more than a tick takes
// queues exactly maxTickReqs and waits; one take lets it go on; and a
// reader waiting for room returns when its connection is closed.
func TestInboxBackpressure(t *testing.T) {
	s := steppedServer(t, Options{Backend: "atomic"})
	waits := jdInboxWaits.Value() // before the reader can wait
	srv, cli := net.Pipe()
	sc := newConn(s, srv)
	s.connWG.Add(2)
	go sc.readLoop()
	go sc.writeLoop()
	go io.Copy(io.Discard, cli) // the hello reply; nothing ticks the pings

	// A hello, then two inboxes' worth of pings and 8 more.
	const pings = 2*maxTickReqs + 8
	p := wire.AppendStr(wire.AppendU32(nil, protoVersion), "pipeliner")
	frames := append(wire.AppendHeader(nil, jopHello, 1, len(p)), p...)
	for seq := uint32(2); seq < 2+pings; seq++ {
		frames = wire.AppendHeader(frames, jopPing, seq, 0)
	}
	go cli.Write(frames) // fails with io.ErrClosedPipe once the connection is closed

	waiting := func(n uint64) func() bool {
		return func() bool { return jdInboxWaits.Value() >= waits+n }
	}
	waitFor(t, 10*time.Second, waiting(1), "the reader to wait for room")
	if q, w := s.queued(), jdInboxWaits.Value()-waits; q != maxTickReqs || w != 1 {
		t.Fatalf("reader waits with %d requests queued, %d waits counted; want %d and 1", q, w, maxTickReqs)
	}

	if reqs, _ := s.take(); len(reqs) != maxTickReqs {
		t.Fatalf("take got %d requests, want %d", len(reqs), maxTickReqs)
	}
	waitFor(t, 10*time.Second, waiting(2), "the released reader to fill the inbox and wait again")
	if q := s.queued(); q != maxTickReqs {
		t.Fatalf("reader waits again with %d requests queued, want %d", q, maxTickReqs)
	}

	sc.close()
	returned := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("a reader waiting for room outlived its connection by 1 s")
	}
	if q := s.queued(); q != maxTickReqs {
		t.Fatalf("%d requests queued after the close, want the %d from before it", q, maxTickReqs)
	}
}

// TestIdleServerShedsBursts: a burst of 5 000 submits, taken a full
// inbox at a time, grows the inbox and the tick scratch far past
// tickKeep. Once single-ping ticks follow, none of them holds more.
func TestIdleServerShedsBursts(t *testing.T) {
	const n = 5000
	s := steppedServer(t, Options{Backend: "atomic", Tenants: map[string]TenantLimits{"t": {}}})
	conns := make([]*conn, 5) // 1 000 replies each, inside connOutDepth
	for i := range conns {
		conns[i] = fakeConn(s)
	}
	for i := 0; i < n; i++ {
		s.post(submitReq(s, conns[i%len(conns)], uint32(i), "t", nil), false)
		if s.queued() == maxTickReqs {
			s.turn()
		}
	}
	s.turn()
	s.d.Flush()
	s.turn() // the rest of the burst's completions
	if ts := s.tenants["t"]; ts.admitted != n || ts.pending != 0 {
		t.Fatalf("after the burst: admitted %d, pending %d; want %d and 0", ts.admitted, ts.pending, n)
	}
	for i := 0; i < 2; i++ {
		s.post(coreReq{op: jopPing, c: conns[0]}, false)
		s.turn()
	}
	for name, c := range map[string]int{
		"requests": cap(s.reqQ), "completions": cap(s.doneQ),
		"spare requests": cap(s.reqSpare), "spare completions": cap(s.doneSpare),
		"verdicts": cap(s.verdicts), "batch": cap(s.batch), "touched": cap(s.touched),
	} {
		if c > tickKeep {
			t.Errorf("an idle server's %s buffer holds %d entries, want ≤ %d", name, c, tickKeep)
		}
	}
}

// TestNewHoldsNoInbox: a volatile server's inbox and tick scratch are
// made by its ticks, so New allocates tens of KiB, where a request
// channel and a drain slice of 1024 requests each took 96.
func TestNewHoldsNoInbox(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are meaningless under the race detector")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := New(Options{Registry: noopRegistry(), Shards: 1, Workers: 2})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if grown := m1.TotalAlloc - m0.TotalAlloc; grown >= 64<<10 {
		t.Fatalf("a volatile New allocated %d KiB, want < 64", grown>>10)
	}
}
