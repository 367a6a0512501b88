package jobd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/obs"
	"atmostonce/internal/wire"
)

// Tests that step the server by hand: tick takes its inputs as
// arguments, so a test builds an inbox, calls it, and reads what it
// queued for each connection — no sockets, no goroutines of the server's
// own (open starts none), nothing to wait for.

// steppedServer opens a server without its core loop. Completions queue
// up until the test feeds them to a tick (settle). Most tests here read
// s.log, so the default backend is one that keeps a log; the tests of the
// volatile side ask for "atomic" by name.
func steppedServer(t *testing.T, o Options) *Server {
	t.Helper()
	if o.Backend == "" {
		o.Backend = "mmap:" + filepath.Join(t.TempDir(), "jobd")
	}
	if o.Registry == nil {
		o.Registry = noopRegistry()
	}
	if o.Shards == 0 {
		o.Shards = 2
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 32
	}
	if o.LogCells == 0 {
		o.LogCells = testLogCells
	}
	s, recs, err := open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.shut(t) })
	if err := s.replay(recs); err != nil {
		t.Fatal(err)
	}
	return s
}

func noopRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("noop", 1, func(context.Context, []byte) error { return nil })
	return reg
}

// shut closes a stepped server's dispatcher and log (idempotent).
func (s *Server) shut(t *testing.T) {
	t.Helper()
	if s.closing.Swap(true) {
		return
	}
	if err := s.d.Close(); err != nil {
		t.Error(err)
	}
	if err := s.log.close(); err != nil {
		t.Error(err)
	}
}

// settle waits for every submitted job and feeds the completions to a
// tick of their own.
func (s *Server) settle() {
	s.d.Flush()
	s.tick(s.take())
}

// queued is how many requests the inbox holds.
func (s *Server) queued() int {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	return len(s.reqQ)
}

// fakeConn is a connection with no socket: its outbound queue records
// what the ticks queue for it.
func fakeConn(s *Server) *conn { return newConn(s, nil) }

type frame struct {
	op      byte
	seq     uint32
	payload []byte
}

// sent drains the frames queued for c, and how often its writer was
// woken for them (0 or 1: the wake-up channel holds one token).
func sent(t *testing.T, c *conn) (fs []frame, wakes int) {
	t.Helper()
	r := wire.NewFrameReader(bytes.NewReader(c.out), readChunk)
	for {
		op, seq, p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("outbound queue does not parse: %v", err)
		}
		fs = append(fs, frame{op, seq, append([]byte(nil), p...)})
	}
	if len(fs) != c.outN {
		t.Fatalf("queue holds %d frames, counts %d", len(fs), c.outN)
	}
	c.out, c.outN = c.out[:0], 0
	select {
	case <-c.outRdy:
		wakes = 1
	default:
	}
	return fs, wakes
}

// ackID / errCode decode the two submit replies.
func ackID(t *testing.T, f frame) uint64 {
	t.Helper()
	if f.op != jopSubmitOK {
		t.Fatalf("seq %d: op %d, want a submit ack", f.seq, f.op)
	}
	dec := wire.Decoder{B: f.payload}
	return dec.U64()
}

func errCode(t *testing.T, f frame) uint16 {
	t.Helper()
	if f.op != jopErr {
		t.Fatalf("seq %d: op %d, want an error reply", f.seq, f.op)
	}
	dec := wire.Decoder{B: f.payload}
	return dec.U16()
}

func submitReq(s *Server, c *conn, seq uint32, tenant string, payload []byte) coreReq {
	j := &job{desc: desc{tenant: tenant, task: "noop", version: 1, payload: payload}, s: s}
	j.fn = s.reg.lookup(j.task, j.version)
	return coreReq{op: jopSubmit, seq: seq, c: c, j: j}
}

// logRecords counts the records committed so far by scanning the log the
// way a reopen would.
func logRecords(t *testing.T, l *descLog) int {
	t.Helper()
	n := 0
	for cur := 1; cur < l.size; n++ {
		hdr := uint64(l.b.Read(cur))
		if hdr == 0 {
			break
		}
		if hdr>>56 != recTag {
			t.Fatalf("record %d: header %#x at cell %d", n, hdr, cur)
		}
		cur += recCells(int(hdr & 0xffffff))
	}
	return n
}

// TestTickQuotaBindsMidTick: five submits of one tenant at MaxPending 3
// in ONE tick — the quota binds after the third exactly as it would
// across five ticks, the three acks carry consecutive ids, the log holds
// three records, and the connection was woken once for all five replies.
func TestTickQuotaBindsMidTick(t *testing.T) {
	s := steppedServer(t, Options{Tenants: map[string]TenantLimits{"t": {MaxPending: 3}}})
	c := fakeConn(s)
	var inbox []coreReq
	for seq := uint32(1); seq <= 5; seq++ {
		inbox = append(inbox, submitReq(s, c, seq, "t", []byte{byte(seq)}))
	}
	ticks, observed := jdTicks.Value(), jdTickReqs.Snapshot()
	s.tick(inbox, nil)
	// The tick is on /metrics: one count and ONE observation — of the
	// five requests it drained — not one per job.
	if after := jdTickReqs.Snapshot(); jdTicks.Value() != ticks+1 || after.Count != observed.Count+1 || after.Sum != observed.Sum+5 {
		t.Fatalf("one tick of 5 moved amo_jobd_ticks_total by %d, amo_jobd_tick_requests by %d observations summing %d",
			jdTicks.Value()-ticks, after.Count-observed.Count, after.Sum-observed.Sum)
	}

	fs, wakes := sent(t, c)
	if len(fs) != 5 || wakes != 1 {
		t.Fatalf("%d replies, %d wake-ups; want 5 and 1", len(fs), wakes)
	}
	for i, f := range fs {
		if f.seq != uint32(i+1) {
			t.Fatalf("reply %d answers seq %d: replies out of request order", i, f.seq)
		}
		if i < 3 {
			if id := ackID(t, f); id != uint64(i+1) {
				t.Fatalf("ack %d carries id %d, want %d", i, id, i+1)
			}
		} else if code := errCode(t, f); code != codeQuota {
			t.Fatalf("reply %d: code %d, want codeQuota", i, code)
		}
	}
	if ts := s.tenants["t"]; ts.pending != 3 || ts.admitted != 3 || ts.rejected != 2 {
		t.Fatalf("ledger %+v, want pending 3, admitted 3, rejected 2", *ts)
	}
	if n := logRecords(t, s.log); n != 3 {
		t.Fatalf("log holds %d records, want 3", n)
	}
	s.settle()
	if ts := s.tenants["t"]; ts.pending != 0 {
		t.Fatalf("pending %d after the jobs resolved", ts.pending)
	}
}

// TestTickReplyOrder: per-connection reply order is request order by
// construction — a ping between two submits is answered between their
// acks, on each of two interleaved connections.
func TestTickReplyOrder(t *testing.T) {
	s := steppedServer(t, Options{Tenants: map[string]TenantLimits{"t": {}}})
	a, b := fakeConn(s), fakeConn(s)
	s.tick([]coreReq{
		submitReq(s, a, 1, "t", nil),
		submitReq(s, b, 1, "t", nil),
		{op: jopPing, seq: 2, c: a},
		{op: jopStats, seq: 2, c: b},
		submitReq(s, a, 3, "t", nil),
		submitReq(s, b, 3, "nobody", nil),
	}, nil)
	fa, _ := sent(t, a)
	if len(fa) != 3 || ackID(t, fa[0]) != 1 || fa[1].op != jopAck || fa[1].seq != 2 || ackID(t, fa[2]) != 3 {
		t.Fatalf("connection a got %+v, want ack(id 1), ping ack, ack(id 3)", fa)
	}
	fb, _ := sent(t, b)
	if len(fb) != 3 || ackID(t, fb[0]) != 2 || fb[1].op != jopStatsOK || errCode(t, fb[2]) != codeTenant {
		t.Fatalf("connection b got %+v, want ack(id 2), stats, unknown-tenant", fb)
	}
	s.settle()
}

// TestTickSubscribeSubmitUnsubscribe: all three in one tick. Both acks
// frame the submit's, the subscription is gone when the job resolves, so
// no event is queued — while a connection that stays subscribed gets
// exactly one, and one wake-up for it.
func TestTickSubscribeSubmitUnsubscribe(t *testing.T) {
	s := steppedServer(t, Options{Tenants: map[string]TenantLimits{"t": {}}})
	c, stay := fakeConn(s), fakeConn(s)
	s.tick([]coreReq{
		{op: jopSubscribe, seq: 1, c: stay, tenant: "t"},
		{op: jopSubscribe, seq: 1, c: c, tenant: "t"},
		submitReq(s, c, 2, "t", nil),
		{op: jopUnsubscribe, seq: 3, c: c, tenant: "t"},
	}, nil)
	fs, _ := sent(t, c)
	if len(fs) != 3 || fs[0].op != jopAck || ackID(t, fs[1]) != 1 || fs[2].op != jopAck {
		t.Fatalf("replies %+v, want ack, submit ack, ack", fs)
	}
	sent(t, stay)
	if len(c.tenants) != 0 || len(s.subs["t"]) != 1 {
		t.Fatalf("after the tick: connection holds %d subscriptions, tenant has %d subscribers", len(c.tenants), len(s.subs["t"]))
	}
	s.settle()
	if fs, _ := sent(t, c); len(fs) != 0 {
		t.Fatalf("unsubscribed connection was sent %+v", fs)
	}
	fs, wakes := sent(t, stay)
	if len(fs) != 1 || fs[0].op != jopEvent || wakes != 1 {
		t.Fatalf("subscriber got %+v with %d wake-ups, want one event and one wake-up", fs, wakes)
	}
	// A dead connection's subscriptions go with it.
	s.tick([]coreReq{{op: opConnGone, c: stay}}, nil)
	if len(s.subs) != 0 {
		t.Fatalf("subscriber registry still holds %v", s.subs)
	}
}

// TestTickCommitFailure: when the tick's one commit fails, every
// admission of the tick is rejected codeCapacity — rejections decided
// earlier keep their own code — and ledger, log cursor and id cursor are
// where they were; the next tick carries on from there as if the failed
// one had never been.
func TestTickCommitFailure(t *testing.T) {
	s := steppedServer(t, Options{Backend: lossySpec(t), Tenants: map[string]TenantLimits{"t": {MaxPending: 4}}})
	c := fakeConn(s)
	s.tick([]coreReq{submitReq(s, c, 1, "t", []byte("before"))}, nil)
	sent(t, c)
	cur, ledger, admitted := s.log.cur, *s.tenants["t"], s.admitted

	log := lossyStore(t.Name()+".desclog", testLogCells)
	log.Hook = func(int, []int64) error { return errors.New("fenced") }
	s.tick([]coreReq{
		submitReq(s, c, 2, "t", []byte("lost-1")),
		submitReq(s, c, 3, "nobody", nil),
		submitReq(s, c, 4, "t", []byte("lost-2")),
		{op: jopPing, seq: 5, c: c},
	}, nil)
	fs, _ := sent(t, c)
	if len(fs) != 4 || errCode(t, fs[0]) != codeCapacity || errCode(t, fs[1]) != codeTenant ||
		errCode(t, fs[2]) != codeCapacity || fs[3].op != jopAck {
		t.Fatalf("replies %+v, want capacity, unknown-tenant, capacity, ping ack", fs)
	}
	ledger.rejected += 2
	if s.log.cur != cur || len(s.log.cells) != 0 || *s.tenants["t"] != ledger || s.admitted != admitted {
		t.Fatalf("after the failed commit: log cursor %d with %d cells staged (was %d, none), ledger %+v (want %+v), admitted %d (was %d)",
			s.log.cur, len(s.log.cells), cur, *s.tenants["t"], ledger, s.admitted, admitted)
	}
	if st := s.d.Stats(); st.Submitted != 1 {
		t.Fatalf("dispatcher saw %d submissions, want the 1 from before the failure", st.Submitted)
	}

	log.Hook = nil
	s.tick([]coreReq{submitReq(s, c, 6, "t", []byte("after"))}, nil)
	if fs, _ := sent(t, c); len(fs) != 1 || ackID(t, fs[0]) != 2 {
		t.Fatalf("first submit after the failure got %+v, want id 2", fs)
	}
	if n := logRecords(t, s.log); n != 2 {
		t.Fatalf("log holds %d records, want 2 (the failed tick's must be invisible)", n)
	}
	s.settle()
}

// TestTickBarrier: a barrier closes in the reply walk — after the tick's
// commit and batch submit — even when it arrived ahead of the submits.
func TestTickBarrier(t *testing.T) {
	s := steppedServer(t, Options{Backend: lossySpec(t), Tenants: map[string]TenantLimits{"t": {}}})
	c := fakeConn(s)
	barrier := make(chan struct{})
	closed := func() bool {
		select {
		case <-barrier:
			return true
		default:
			return false
		}
	}
	lossyStore(t.Name()+".desclog", testLogCells).Hook = func(int, []int64) error {
		if closed() {
			t.Error("barrier closed before the tick's log commit")
		}
		return nil
	}
	s.tick([]coreReq{{op: opBarrier, barrier: barrier}, submitReq(s, c, 1, "t", nil)}, nil)
	if !closed() {
		t.Fatal("barrier still open after its tick")
	}
	if st := s.d.Stats(); st.Submitted != 1 {
		t.Fatalf("barrier closed with %d jobs submitted, want 1", st.Submitted)
	}
	s.settle()
}

// TestIdBudgetExact: MaxJobs = N admits exactly N submissions; the N+1-th
// is codeCapacity and logs nothing — in the tick that spends the budget
// and in every tick after. On both sides of membackend.Volatile: where a
// log is kept ids are its ordinals and it holds exactly N records; where
// none is, the budget is jobd's own count of what it admitted.
func TestIdBudgetExact(t *testing.T) {
	const n = 37
	for _, side := range []struct {
		backend string
		logged  bool
	}{{"mmap:" + filepath.Join(t.TempDir(), "jobd"), true}, {"atomic", false}} {
		s := steppedServer(t, Options{Backend: side.backend, MaxJobs: n, Tenants: map[string]TenantLimits{"t": {}}})
		c := fakeConn(s)
		var inbox []coreReq
		for seq := uint32(1); seq <= n+3; seq++ {
			inbox = append(inbox, submitReq(s, c, seq, "t", nil))
		}
		s.tick(inbox[:10], nil)
		s.tick(inbox[10:], nil)
		fs, _ := sent(t, c)
		for i, f := range fs {
			if i < n {
				if id := ackID(t, f); id != uint64(i+1) {
					t.Fatalf("submission %d got id %d", i+1, id)
				}
			} else if code := errCode(t, f); code != codeCapacity {
				t.Fatalf("submission %d (budget %d): code %d, want codeCapacity", i+1, n, code)
			}
		}
		cur := s.log.cur
		s.tick([]coreReq{submitReq(s, c, 99, "t", nil)}, nil)
		if fs, _ := sent(t, c); len(fs) != 1 || errCode(t, fs[0]) != codeCapacity {
			t.Fatalf("submission past the budget got %+v", fs)
		}
		if got := logRecords(t, s.log); s.log.cur != cur || (side.logged && got != n) {
			t.Fatalf("backend %q: log holds %d records (cursor %d → %d), want exactly %d", side.backend, got, cur, s.log.cur, n)
		}
		s.settle()
		if st := s.d.Stats(); st.Submitted != n || st.Performed != n {
			t.Fatalf("dispatcher: %d submitted, %d performed, want %d", st.Submitted, st.Performed, n)
		}
	}
}

// sumCounters adds up every series of one counter family in reg.
func sumCounters(reg *obs.Registry, family string) (n uint64) {
	for key, v := range reg.Snapshot() {
		if strings.HasPrefix(key, family) {
			n += v.(uint64)
		}
	}
	return n
}

// TestVolatileServerKeepsNoStore: on the default backend no process can
// reopen what the server writes, so it opens no backend and sizes nothing
// by MaxJobs — a budget of 1<<20 ids costs under 1 MiB to open, where
// journal rows and a log for them took 24 — and with no log to fill,
// LogCells binds nothing: MaxJobs = N admits exactly N jobs of a size not
// one of which would fit an 8-cell log, and the N+1st is turned away by
// the id budget.
func TestVolatileServerKeepsNoStore(t *testing.T) {
	opens := sumCounters(obs.Default, "amo_membackend_opens_total")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, recs, err := open(Options{Registry: noopRegistry(), MaxJobs: 1 << 20, Shards: 1, Workers: 2})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.shut(t) })
	if grown := m1.TotalAlloc - m0.TotalAlloc; grown >= 1<<20 || len(recs) != 0 {
		t.Fatalf("opening a volatile server with MaxJobs 1<<20 allocated %d KiB and found %d records, want < 1 MiB and none", grown>>10, len(recs))
	}
	if got := sumCounters(obs.Default, "amo_membackend_opens_total"); got != opens {
		t.Fatalf("a volatile server opened %d backends, want none", got-opens)
	}

	const n = 5
	s = steppedServer(t, Options{Backend: "atomic", MaxJobs: n, LogCells: 8, Tenants: map[string]TenantLimits{"t": {}}})
	c := fakeConn(s)
	var inbox []coreReq
	for seq := uint32(1); seq <= n+1; seq++ {
		inbox = append(inbox, submitReq(s, c, seq, "t", make([]byte, 64)))
	}
	s.tick(inbox, nil)
	fs, _ := sent(t, c)
	if len(fs) != n+1 {
		t.Fatalf("%d replies to %d submits", len(fs), n+1)
	}
	for i, f := range fs[:n] {
		if id := ackID(t, f); id != uint64(i+1) {
			t.Fatalf("submission %d got id %d", i+1, id)
		}
	}
	if code := errCode(t, fs[n]); code != codeCapacity || !bytes.Contains(fs[n].payload, []byte("job-id budget exhausted")) {
		t.Fatalf("submission %d of a budget of %d: code %d %q, want the id budget's codeCapacity", n+1, n, code, fs[n].payload)
	}
	s.settle()
	if st := s.d.Stats(); st.Submitted != n || st.Performed != n {
		t.Fatalf("dispatcher: %d submitted, %d performed, want %d", st.Submitted, st.Performed, n)
	}
}

// TestTickIsOneAckedWrite: a tick of k jobs reaches the descriptor log's
// store as ONE acked write of its k records plus the zero cell that ends
// the log, and no plain write; the shard journals record one cell per
// job.
func TestTickIsOneAckedWrite(t *testing.T) {
	const k = 6
	s := steppedServer(t, Options{Backend: lossySpec(t), Tenants: map[string]TenantLimits{"t": {}}})
	log := lossyStore(t.Name()+".desclog", testLogCells)
	var acked []int
	log.Hook = func(_ int, vals []int64) error { acked = append(acked, len(vals)); return nil }
	writes := log.Counts().Writes
	c := fakeConn(s)
	var inbox []coreReq
	for seq := uint32(1); seq <= k; seq++ {
		inbox = append(inbox, submitReq(s, c, seq, "t", nil))
	}
	s.tick(inbox, nil)
	want := k*recCells(inbox[0].j.encodedLen()) + 1
	if got := log.Counts().Writes - writes; len(acked) != 1 || acked[0] != want || got != want {
		t.Fatalf("a tick of %d jobs: acked writes of %v cells, %d cells written in all; want one acked write of %d cells and nothing else", k, acked, got, want)
	}
	s.settle()
	if got := sumCounters(s.d.Registry(), "amo_membackend_journal_writes_total"); got != k {
		t.Fatalf("%d journal cells for %d jobs, want one each", got, k)
	}
}

// TestTickPartitionsReplayIdentically: a job's id is its ordinal in the
// descriptor log whatever the tick boundaries were. The same 300
// descriptors, admitted under three different random partitions into
// ticks, get ids 1..300 in arrival order each time; a clean close and
// reopen finds them in the log in that order, replays them onto the same
// ids, and resolves all 300 Recovered with none run again.
func TestTickPartitionsReplayIdentically(t *testing.T) {
	const n = 300
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := Options{
			Registry: noopRegistry(), Shards: 2, Workers: 2, MaxBatch: 32, LogCells: testLogCells,
			Backend: "mmap:" + filepath.Join(t.TempDir(), "jobd"),
			MaxJobs: n, JournalBatch: 4,
			Tenants: map[string]TenantLimits{"t": {}, "u": {}},
		}
		s := steppedServer(t, o)
		c := fakeConn(s)
		ticks := 0
		for lo := 0; lo < n; ticks++ {
			hi := min(lo+1+rng.Intn(40), n)
			var inbox []coreReq
			for i := lo; i < hi; i++ {
				inbox = append(inbox, submitReq(s, c, uint32(i), "tu"[i%2:i%2+1], wire.AppendU64(nil, uint64(i))))
				if rng.Intn(4) == 0 {
					inbox = append(inbox, coreReq{op: jopPing, c: c})
				}
			}
			s.tick(inbox, nil)
			lo = hi
		}
		fs, _ := sent(t, c)
		next := uint64(1)
		for _, f := range fs {
			if f.op == jopSubmitOK {
				if id := ackID(t, f); id != next || uint64(f.seq) != next-1 {
					t.Fatalf("seed %d: descriptor %d acked with id %d, want %d", seed, f.seq, id, next)
				}
				next++
			}
		}
		if next != n+1 {
			t.Fatalf("seed %d: %d acks, want %d", seed, next-1, n)
		}
		s.settle()
		s.shut(t)

		s2, recs, err := open(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s2.shut(t) })
		if len(recs) != n {
			t.Fatalf("seed %d: reopened log holds %d records, want %d", seed, len(recs), n)
		}
		if err := s2.replay(recs); err != nil {
			t.Fatal(err)
		}
		_, done := s2.take() // recovered jobs resolve inside the replay's own DoRunners
		if len(done) != n {
			t.Fatalf("seed %d: %d of %d replayed descriptors resolved at once", seed, len(done), n)
		}
		for _, m := range done {
			dec := wire.Decoder{B: m.j.payload}
			if i := dec.U64(); !m.r.Recovered || m.r.ID != i+1 || m.j != &recs[i] {
				t.Fatalf("seed %d: descriptor %d replayed as %+v", seed, i, m.r)
			}
		}
		s2.tick(nil, done)
		if s2.replayed != n || s2.reexecuted != 0 || s2.admitted != n || s2.replayHorizon != n {
			t.Fatalf("seed %d: replayed %d, re-executed %d, admitted %d, horizon %d", seed, s2.replayed, s2.reexecuted, s2.admitted, s2.replayHorizon)
		}
		if st := s2.d.Stats(); st.Recovered != n || st.Duplicates != 0 || st.Pending != 0 {
			t.Fatalf("seed %d: dispatcher after replay: %+v", seed, st)
		}
		t.Logf("seed %d: %d descriptors in %d ticks", seed, n, ticks)
	}
}

// TestParentDescLogRefused: a descriptor log of an earlier format — its
// fingerprint in cell 0 — is refused at New with a sentence that names
// the change, and is left byte-for-byte as it was. So is a log with a
// record and no fingerprint: no commit comes before the fingerprint is
// acked, so another writer wrote it.
func TestParentDescLogRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		magic int64
		says  []string
	}{
		{"amo-desc", logMagicBlocks, []string{"ids became log ordinals", "per-shard blocks", "start jobd stores fresh"}},
		{"amo-dsc2", logMagicPlain, []string{"check of their body", "never reached the store", "start jobd stores fresh"}},
		{"unstamped", 0, []string{"holds records but no fingerprint", "start jobd stores fresh"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := "mmap:" + filepath.Join(dir, "jobd")
			path := filepath.Join(dir, "jobd.desclog")
			b, err := membackend.Open(spec+".desclog", testLogCells)
			if err != nil {
				t.Fatal(err)
			}
			// That format's log mid-life: its fingerprint and one record
			// (both wrote a header of tag 0x6a44 and a length).
			rec := (&desc{tenant: "t", task: "noop", version: 1, payload: []byte("old")}).encode(nil)
			b.Write(0, tc.magic)
			b.Write(1, int64(0x6a44<<48|uint64(len(rec))))
			for i := 0; i < len(rec); i += 8 {
				var cell [8]byte
				copy(cell[:], rec[i:])
				b.Write(2+i/8, cellVal(cell[:]))
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			s, err := New(Options{Registry: noopRegistry(), Backend: spec, MaxJobs: 64, LogCells: testLogCells, Shards: 1, Workers: 2})
			if err == nil {
				s.Close()
				t.Fatalf("a descriptor log of format %s was accepted", tc.name)
			}
			for _, want := range tc.says {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal does not say %q: %v", want, err)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("the refused descriptor log was modified")
			}
		})
	}
}

// TestWireCallsPerJob records what a job costs each side in socket calls
// at pipeline depth 16. The connection is real (loopback, the server's
// own reader and writer goroutines); the core loop is stepped by hand, so
// a round is exactly 16 submits in flight, one tick that acks them and
// one that fans out their events. What that fixes is asserted: the
// client's combining writer (wire.Client) issues fewer Writes than calls
// — a submit that finds a write in progress rides it — and the server
// one per tick (give or take a writer caught mid-loop). How many submits
// a write carries is the scheduler's, and logged; so is how many writes
// one Read finds, which is bounded by one per frame.
func TestWireCallsPerJob(t *testing.T) {
	const depth, rounds = 16, 200
	s := steppedServer(t, Options{Backend: "atomic", Tenants: map[string]TenantLimits{"t": {}}})
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
		sc := newConn(s, nc)
		s.connWG.Add(2)
		go sc.readLoop()
		go sc.writeLoop()
	}()
	c, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.connWG.Wait() })
	// step runs one tick over exactly the n requests the clients have in flight.
	step := func(n int) {
		waitFor(t, 10*time.Second, func() bool { return s.queued() == n }, "requests to reach the core")
		s.tick(s.take())
	}
	var events atomic.Int64
	subscribed := make(chan error, 1)
	go func() { subscribed <- c.Subscribe("t", func(Event) { events.Add(1) }) }()
	step(1)
	if err := <-subscribed; err != nil {
		t.Fatal(err)
	}

	cli0, srvR0, srvW0 := c.WireStats(), jdConnReads.Value(), jdConnWrites.Value()
	payload := make([]byte, 32)
	for r := 1; r <= rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < depth; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Submit("t", "noop", 1, payload, SubmitOptions{}); err != nil {
					t.Error(err)
				}
			}()
		}
		step(depth)
		wg.Wait()
		s.settle()
		waitFor(t, 10*time.Second, func() bool { return events.Load() == int64(r*depth) }, "the round's events")
	}
	const jobs = depth * rounds
	cli := c.WireStats()
	per := func(n uint64) float64 { return float64(n) / jobs }
	cliR, cliW := cli.Reads-cli0.Reads, cli.Writes-cli0.Writes
	srvR, srvW := jdConnReads.Value()-srvR0, jdConnWrites.Value()-srvW0
	t.Logf("depth %d, %d jobs: client %.3f writes + %.3f reads per job, server %.3f reads + %.3f writes per job",
		depth, jobs, per(cliW), per(cliR), per(srvR), per(srvW))
	if cliW >= jobs {
		t.Errorf("client issued %d Writes for %d calls, want fewer: the writer does not combine", cliW, jobs)
	}
	// One per tick with frames to send — or two: a writer still on its way
	// round from the tick before takes what this one has queued so far, and
	// the tick's wake-up sends the rest.
	if srvW < 2*rounds || srvW > 4*rounds {
		t.Errorf("server issued %d Writes over %d ticks with frames to send, want one each (two at most)", srvW, 2*rounds)
	}
	// Each Read returns at least the rest of one frame; the +rounds is the
	// Read left blocked between rounds.
	if srvR > jobs+rounds || cliR > 2*jobs+rounds {
		t.Errorf("server %d Reads, client %d Reads for %d submits, %d acks and %d events", srvR, cliR, jobs, jobs, jobs)
	}
}
