package jobd

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/wire"
)

// testServer starts a volatile server with test-sized defaults and
// returns it with its bound address. Closed via t.Cleanup.
func testServer(t *testing.T, o Options) (*Server, string) {
	t.Helper()
	if o.Registry == nil {
		o.Registry = NewRegistry()
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

func testClient(t *testing.T, addr string, o ClientOptions) *Client {
	t.Helper()
	c, err := Dial(addr, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// eventCollector records streamed events.
type eventCollector struct {
	mu  sync.Mutex
	evs []Event
}

func (ec *eventCollector) add(e Event) {
	ec.mu.Lock()
	ec.evs = append(ec.evs, e)
	ec.mu.Unlock()
}

func (ec *eventCollector) snapshot() []Event {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return append([]Event(nil), ec.evs...)
}

func (ec *eventCollector) count() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return len(ec.evs)
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout: " + msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitAndEvents: two tenants submit a registered task; each
// subscriber sees exactly its own tenant's completions with the task
// name, the payload-determined outcome and the job id intact.
func TestSubmitAndEvents(t *testing.T) {
	reg := NewRegistry()
	var ran atomic.Int64
	reg.Register("count", 1, func(_ context.Context, p []byte) error {
		ran.Add(1)
		if string(p) == "boom" {
			return errors.New("boom requested")
		}
		return nil
	})
	_, addr := testServer(t, Options{
		Registry: reg,
		Tenants:  map[string]TenantLimits{"alpha": {}, "beta": {}},
	})

	c := testClient(t, addr, ClientOptions{Name: "test"})
	var alpha, beta eventCollector
	if err := c.Subscribe("alpha", alpha.add); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("beta", beta.add); err != nil {
		t.Fatal(err)
	}

	idA, err := c.Submit("alpha", "count", 1, []byte("ok"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := c.Submit("beta", "count", 1, []byte("boom"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if idA == 0 || idB == 0 || idA == idB {
		t.Fatalf("bad ids %d, %d", idA, idB)
	}

	waitFor(t, 10*time.Second, func() bool { return alpha.count() == 1 && beta.count() == 1 },
		"completion events")
	if ran.Load() != 2 {
		t.Fatalf("task ran %d times, want 2", ran.Load())
	}
	evA := alpha.snapshot()[0]
	if evA.Tenant != "alpha" || evA.ID != idA || evA.Status != StatusOK || evA.Task != "count" {
		t.Fatalf("alpha event = %+v", evA)
	}
	evB := beta.snapshot()[0]
	if evB.Tenant != "beta" || evB.ID != idB || evB.Status != StatusError || evB.Err == "" {
		t.Fatalf("beta event = %+v", evB)
	}
}

// TestAdmissionRejections: unknown tenants, unknown tasks and oversized
// payloads are rejected with their own codes, and none of them burns a
// job id — the next accepted submission's id is still dense.
func TestAdmissionRejections(t *testing.T) {
	reg := NewRegistry()
	reg.Register("noop", 1, func(context.Context, []byte) error { return nil })
	_, addr := testServer(t, Options{
		Registry:   reg,
		MaxPayload: 64,
		Tenants:    map[string]TenantLimits{"a": {}},
	})
	c := testClient(t, addr, ClientOptions{})

	id1, err := c.Submit("a", "noop", 1, nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var se *ServerError
	if _, err := c.Submit("ghost", "noop", 1, nil, SubmitOptions{}); !errors.As(err, &se) || se.Code != codeTenant {
		t.Fatalf("unknown tenant: got %v, want codeTenant", err)
	}
	if _, err := c.Submit("a", "missing", 1, nil, SubmitOptions{}); !errors.As(err, &se) || se.Code != codeUnknownTask {
		t.Fatalf("unknown task: got %v, want codeUnknownTask", err)
	}
	if _, err := c.Submit("a", "noop", 2, nil, SubmitOptions{}); !errors.As(err, &se) || se.Code != codeUnknownTask {
		t.Fatalf("unknown version: got %v, want codeUnknownTask", err)
	}
	if _, err := c.Submit("a", "noop", 1, make([]byte, 65), SubmitOptions{}); !errors.As(err, &se) || se.Code != codeTooBig {
		t.Fatalf("oversized payload: got %v, want codeTooBig", err)
	}

	id2, err := c.Submit("a", "noop", 1, nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1+1 {
		t.Fatalf("id after rejections = %d, want %d (rejections must not burn ids)", id2, id1+1)
	}
}

// TestTenantQuota: a tenant at MaxPending is rejected with codeQuota;
// the rejection burns no id (the next accepted id is dense); and once
// the pending work resolves, the tenant is admitted again.
func TestTenantQuota(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	reg.Register("block", 1, func(ctx context.Context, _ []byte) error {
		<-release
		return nil
	})
	_, addr := testServer(t, Options{
		Registry: reg,
		Workers:  4,
		Tenants:  map[string]TenantLimits{"q": {MaxPending: 2}},
	})
	c := testClient(t, addr, ClientOptions{})
	var done eventCollector
	if err := c.Subscribe("q", done.add); err != nil {
		t.Fatal(err)
	}

	id1, err := c.Submit("q", "block", 1, nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Submit("q", "block", 1, nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1+1 {
		t.Fatalf("ids not dense: %d then %d", id1, id2)
	}

	if _, err := c.Submit("q", "block", 1, nil, SubmitOptions{}); !IsQuota(err) {
		t.Fatalf("submit at MaxPending: got %v, want quota rejection", err)
	}

	close(release)
	waitFor(t, 10*time.Second, func() bool { return done.count() == 2 }, "pending jobs resolving")

	id3, err := c.Submit("q", "block", 1, nil, SubmitOptions{})
	if err != nil {
		t.Fatalf("submit after quota freed: %v", err)
	}
	if id3 != id2+1 {
		t.Fatalf("id after quota rejection = %d, want %d (the rejection burned an id)", id3, id2+1)
	}
	waitFor(t, 10*time.Second, func() bool { return done.count() == 3 }, "final job resolving")

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ts := st.Tenants["q"]
	if ts.Admitted != 3 || ts.Rejected != 1 || ts.Pending != 0 {
		t.Fatalf("tenant stats = %+v", ts)
	}
	if st.Jobs.Duplicates != 0 {
		t.Fatalf("duplicates: %d", st.Jobs.Duplicates)
	}
}

// TestPriorityQuota: MaxHigh caps only the High class — a tenant at its
// High quota can still submit Normal work.
func TestPriorityQuota(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	reg.Register("block", 1, func(context.Context, []byte) error { <-release; return nil })
	_, addr := testServer(t, Options{
		Registry: reg,
		Workers:  4,
		Tenants:  map[string]TenantLimits{"p": {MaxPending: 10, MaxHigh: 1}},
	})
	defer close(release)
	c := testClient(t, addr, ClientOptions{})

	if _, err := c.Submit("p", "block", 1, nil, SubmitOptions{Priority: PriorityHigh}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("p", "block", 1, nil, SubmitOptions{Priority: PriorityHigh}); !IsQuota(err) {
		t.Fatalf("second High: got %v, want quota rejection", err)
	}
	if _, err := c.Submit("p", "block", 1, nil, SubmitOptions{}); err != nil {
		t.Fatalf("Normal under High quota: %v", err)
	}
}

// TestDefaultLimits: unlisted tenants ride DefaultLimits when set.
func TestDefaultLimits(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	reg.Register("block", 1, func(context.Context, []byte) error { <-release; return nil })
	_, addr := testServer(t, Options{
		Registry:      reg,
		Workers:       4,
		DefaultLimits: &TenantLimits{MaxPending: 1},
	})
	defer close(release)
	c := testClient(t, addr, ClientOptions{})

	if _, err := c.Submit("anybody", "block", 1, nil, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("anybody", "block", 1, nil, SubmitOptions{}); !IsQuota(err) {
		t.Fatalf("got %v, want quota rejection under DefaultLimits", err)
	}
	// A different tenant has its own ledger.
	if _, err := c.Submit("other", "block", 1, nil, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedSubmitters: many goroutines share one client; every
// submission gets a unique id and every completion is streamed.
func TestPipelinedSubmitters(t *testing.T) {
	reg := NewRegistry()
	var ran atomic.Int64
	reg.Register("tick", 1, func(context.Context, []byte) error { ran.Add(1); return nil })
	_, addr := testServer(t, Options{
		Registry: reg,
		Shards:   2,
		Tenants:  map[string]TenantLimits{"pipe": {}},
	})
	c := testClient(t, addr, ClientOptions{})
	var done eventCollector
	if err := c.Subscribe("pipe", done.add); err != nil {
		t.Fatal(err)
	}

	const (
		gs   = 8
		each = 50
	)
	ids := make([]uint64, gs*each)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := c.Submit("pipe", "tick", 1, nil, SubmitOptions{})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids[g*each+i] = id
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero id %d", id)
		}
		seen[id] = true
	}
	waitFor(t, 20*time.Second, func() bool { return done.count() == gs*each }, "all completions")
	if ran.Load() != gs*each {
		t.Fatalf("ran %d, want %d", ran.Load(), gs*each)
	}
}

// TestUnsubscribe: after unsubscribing, completions stop flowing.
func TestUnsubscribe(t *testing.T) {
	reg := NewRegistry()
	reg.Register("noop", 1, func(context.Context, []byte) error { return nil })
	_, addr := testServer(t, Options{
		Registry: reg,
		Tenants:  map[string]TenantLimits{"u": {}},
	})
	c := testClient(t, addr, ClientOptions{})
	var done eventCollector
	if err := c.Subscribe("u", done.add); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("u", "noop", 1, nil, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return done.count() == 1 }, "first completion")

	if err := c.Unsubscribe("u"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("u", "noop", 1, nil, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	// The second completion must NOT arrive; give it a moment to prove a
	// negative by draining through a ping round trip and a beat.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := done.count(); n != 1 {
		t.Fatalf("events after unsubscribe: %d, want 1", n)
	}
}

// TestServerStats: the stats document reports tasks, admissions and the
// dispatcher's conservation counters.
func TestServerStats(t *testing.T) {
	reg := NewRegistry()
	reg.Register("noop", 1, func(context.Context, []byte) error { return nil })
	reg.Register("noop", 2, func(context.Context, []byte) error { return nil })
	s, addr := testServer(t, Options{
		Registry: reg,
		Tenants:  map[string]TenantLimits{"st": {}},
	})
	c := testClient(t, addr, ClientOptions{})
	for i := 0; i < 5; i++ {
		if _, err := c.Submit("st", "noop", 1, nil, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Incarnation == "" || st.Admitted != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Tasks) != 2 || st.Tasks[0] != "noop@v1" || st.Tasks[1] != "noop@v2" {
		t.Fatalf("tasks = %v", st.Tasks)
	}
	if st.Jobs.Submitted != 5 {
		t.Fatalf("jobs = %+v", st.Jobs)
	}
	_ = s
}

// TestListenOnce: a second Listen is refused and leaves the first
// listener serving, Close returns (it used to wait for ever on the
// accept loop of a listener it no longer held), and Listen after Close
// is refused.
func TestListenOnce(t *testing.T) {
	s, addr := testServer(t, Options{Registry: NewRegistry()})
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Error("second Listen accepted")
	}
	c, err := Dial(addr, ClientOptions{}) // the first listener still serves
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a second Listen")
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close accepted")
	}
}

// TestHelloRequired: a first frame that is not hello, and a hello with
// the wrong protocol version, both cut the connection with codeProto.
func TestHelloRequired(t *testing.T) {
	reg := NewRegistry()
	_, addr := testServer(t, Options{Registry: reg})

	// Raw dial, send a ping first: expect jopErr{codeProto}.
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err) // proper hello works
	}
	c.Close()

	raw := func(frames func() []byte) *ServerError {
		t.Helper()
		nc, err := netDial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(frames()); err != nil {
			t.Fatal(err)
		}
		op, _, payload, err := readOneFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		if op != jopErr {
			t.Fatalf("op = %d, want jopErr", op)
		}
		dec := wire.Decoder{B: payload}
		se := &ServerError{Code: dec.U16(), Msg: dec.Str()}
		return se
	}

	if se := raw(func() []byte { return wire.AppendHeader(nil, jopPing, 1, 0) }); se.Code != codeProto {
		t.Fatalf("ping before hello: %+v", se)
	}
	if se := raw(func() []byte {
		p := wire.AppendU32(nil, protoVersion+1)
		p = wire.AppendStr(p, "bad")
		return append(wire.AppendHeader(nil, jopHello, 1, len(p)), p...)
	}); se.Code != codeProto {
		t.Fatalf("bad proto version: %+v", se)
	}
}

// TestSubmitWithDeadline: a job whose deadline passes while queued
// resolves Expired and its event says so.
func TestSubmitWithDeadline(t *testing.T) {
	reg := NewRegistry()
	running, release := make(chan struct{}), make(chan struct{})
	var expiredRan atomic.Bool
	reg.Register("block", 1, func(context.Context, []byte) error { close(running); <-release; return nil })
	reg.Register("doomed", 1, func(context.Context, []byte) error { expiredRan.Store(true); return nil })
	// One shard, one worker: a round of one job is always performed by
	// that worker (with two, either blocker could end up as the round's
	// residue and never start), and the shard cuts no other round until
	// this one settles.
	_, addr := testServer(t, Options{
		Registry: reg,
		Workers:  1,
		Tenants:  map[string]TenantLimits{"d": {}},
	})
	c := testClient(t, addr, ClientOptions{})
	var done eventCollector
	if err := c.Subscribe("d", done.add); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Submit("d", "block", 1, nil, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	// The doomed job is submitted only once the blocker is running, so it
	// cannot be cut into the blocker's round (where it would run "ok" after
	// the release): it waits for a round cut after release — after its
	// deadline.
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocking job never started")
	}
	deadline := time.Now().Add(20 * time.Millisecond)
	id, err := c.Submit("d", "doomed", 1, nil, SubmitOptions{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Until(deadline) + time.Millisecond) // the clock, not an event
	close(release)

	waitFor(t, 10*time.Second, func() bool { return done.count() == 2 }, "both completions")
	var expired *Event
	for _, e := range done.snapshot() {
		if e.ID == id {
			ev := e
			expired = &ev
		}
	}
	if expired == nil || expired.Status != StatusExpired {
		t.Fatalf("doomed job event = %+v, want expired", expired)
	}
	if expiredRan.Load() {
		t.Fatal("expired job's payload ran")
	}
}

// netDial and readOneFrame are raw-wire helpers for protocol tests
// that must speak frames the Client refuses to produce.
func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

func readOneFrame(nc net.Conn) (op byte, seq uint32, payload []byte, err error) {
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	return wire.NewFrameReader(nc, readChunk).Next()
}
