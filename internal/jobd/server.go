package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"atmostonce/internal/dispatch"
	"atmostonce/internal/membackend"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/wire"
)

// TenantLimits is one tenant's admission contract. Limits are enforced
// BEFORE a submission consumes a job id or a descriptor-log slot (the
// same reserve-before-id discipline the dispatcher's bounded queues
// use), so a rejected submission burns nothing: ids stay dense and the
// durable id budget is spent only on admitted work.
type TenantLimits struct {
	// MaxPending caps the tenant's admitted-but-unresolved jobs (queued
	// plus running). 0 = unlimited.
	MaxPending int
	// MaxHigh caps how many of those may be High priority — the priority
	// quota: a tenant can always fill its pending allowance, but only
	// this much of it may jump other tenants' Normal work. 0 = unlimited.
	MaxHigh int
}

// Options configures a Server.
type Options struct {
	// Registry holds the task types this server can run. Required.
	Registry *Registry
	// Backend is the membackend spec whose instances back the dispatcher
	// shards (".shard<i>") and the descriptor log (".desclog"); the
	// kind's opener places the suffix.
	// Empty means "atomic": volatile (membackend.Volatile) — nothing
	// survives the process, so the server keeps no shard journal and no
	// descriptor log at all. Every other spec keeps both.
	Backend string
	// MaxJobs is the id budget: exactly this many submissions are ever
	// admitted. On a durable backend it spans restarts (dispatch.Config
	// MaxJobs, it sizes the shard journals); on a volatile one it is the
	// admission budget of this process and sizes nothing. Default 1 << 20.
	MaxJobs int
	// LogCells sizes the descriptor log in 8-byte register cells; a full
	// log rejects further submissions with codeCapacity. A record takes
	// 1 + ⌈(21+len(tenant)+len(task)+len(payload))/8⌉ cells, so a store
	// meant to reach MaxJobs needs MaxJobs times that: the default, 1 << 20
	// (8 MiB), holds 174 762 eight-byte jobs of a 4-byte tenant and task,
	// not 1 << 20. Ignored on a volatile backend, which keeps no log.
	LogCells int
	// MaxPayload caps one submission's payload bytes. Default 1 << 20;
	// hard ceiling just under wire.MaxFrame.
	MaxPayload int

	// Shards, Workers, MaxBatch and JournalBatch pass through to
	// dispatch.Config (JournalBatch only matters on a durable backend: a
	// volatile one has no journal to batch). The dispatcher queue is always
	// UNBOUNDED here: all backpressure lives in jobd's admission (tenant
	// quotas and the id budget), checked before an id exists — a submit
	// that could fail after the descriptor is logged would desync log and
	// journal.
	Shards       int
	Workers      int
	MaxBatch     int
	JournalBatch int

	// Tenants maps tenant name → limits. Tenants not listed are
	// admitted under DefaultLimits when set, rejected (codeTenant)
	// when nil.
	Tenants       map[string]TenantLimits
	DefaultLimits *TenantLimits

	// MetricsAddr, when non-empty, serves the ops endpoint (/metrics,
	// /healthz, /statsz, /tracez, /debug/pprof/) through the dispatcher.
	MetricsAddr string
	// TraceSampleRate samples job timelines into the dispatcher tracer
	// (served at /tracez) — the substrate for cross-incarnation
	// stitching of re-executed work.
	TraceSampleRate float64
}

// job is one submission: the descriptor the log stores, what running it
// needs, and — as the dispatcher's Runner — payload and completion in one
// object. A reader carves them from its slab and their payloads from its
// read chunk (conn.readLoop); replay carves them from the log scan's slab.
// Neither is released before every job carved from it is unreachable, so a
// job gives up its payload the moment it is decided (tick, on a rejection;
// complete, on a resolution): what holds on to a *job after that holds one
// slab, not the chunks of every payload in it.
type job struct {
	desc
	s   *Server
	fn  TaskFunc // looked up by whoever built the job; nil = not registered
	err error    // Run's error, kept for Resolved
}

// Run is the payload, on a dispatcher worker. Only a replayed descriptor
// can lack its task: admission rejects one that is not registered.
func (j *job) Run(ctx context.Context) error {
	if j.fn == nil {
		j.err = fmt.Errorf("jobd: task %s@v%d no longer registered", j.task, j.version)
	} else {
		j.err = j.fn(ctx, j.payload)
	}
	return j.err
}

// Resolved is the completion, exactly once per job: on a shard loop, or
// — for a journal-recovered job — inside the core loop's own DoRunners.
func (j *job) Resolved(r dispatch.JobResult) {
	if r.Err == nil {
		r.Err = j.err
	}
	j.s.postDone(doneMsg{j, r})
}

func (j *job) runnerTask() dispatch.RunnerTask {
	return dispatch.RunnerTask{Runner: j, Deadline: j.deadline, Priority: dispatch.Priority(j.pri)}
}

// doneMsg carries one job completion from the dispatcher into a tick.
type doneMsg struct {
	j *job
	r dispatch.JobResult
}

// Core-request kinds (coreReq.op reuses wire op codes; opConnGone is
// the internal "connection died, forget its subscriptions" sentinel).
const opConnGone byte = 0xfe
const opBarrier byte = 0xff

// coreReq is one request routed from a connection reader (or Close, or a
// connection's end) into the core loop.
type coreReq struct {
	op      byte
	seq     uint32
	c       *conn
	j       *job          // jopSubmit
	tenant  string        // jopSubscribe / jopUnsubscribe
	barrier chan struct{} // opBarrier: closed in the tick's reply walk
}

// verdict is the decide phase's ruling on one submit, kept for the reply
// walk: the admission result (admAccepted = 0) and, if not that, the error.
type verdict struct {
	adm  int
	code uint16
	msg  string
}

// tenantState is the core loop's per-tenant ledger.
type tenantState struct {
	limits   TenantLimits
	pending  int // admitted, not yet resolved
	high     int // of pending, High priority
	admitted uint64
	rejected uint64
}

// Server is the job service. See the package comment for the
// architecture; the load-bearing invariant is that coreLoop (and the
// ticks it runs) is the ONLY goroutine that touches tenants, subs, the
// descriptor log or the dispatcher's submit path.
type Server struct {
	opts Options
	reg  *Registry
	d    *dispatch.Dispatcher
	log  *descLog

	// The inbox: requests and completions no tick has taken yet, guarded
	// by inMu. Producers append and nudge inWake; see post and take.
	inMu   sync.Mutex
	room   sync.Cond
	reqQ   []coreReq
	doneQ  []doneMsg
	inWake chan struct{}
	quit   chan struct{}
	coreWG sync.WaitGroup

	closing atomic.Bool
	srv     wire.Server
	connWG  sync.WaitGroup // every connection's reader and writer

	// Core-owned state — coreLoop and the ticks it runs only, no locks.
	tenants       map[string]*tenantState
	subs          map[string]map[*conn]struct{}
	reqSpare      []coreReq // reqQ's and doneQ's other buffers: swapped per tick
	doneSpare     []doneMsg
	verdicts      []verdict             // tick scratch: one per request
	batch         []dispatch.RunnerTask // tick scratch: the admitted jobs
	touched       []*conn               // owed a wake-up at the end of the tick
	evBuf         []byte                // complete's event-payload scratch
	admitted      uint64                // jobs handed to the dispatcher, replay included: the last id
	replayed      uint64
	reexecuted    uint64
	replayHorizon uint64 // the last replayed id; 0 = none
	ticks         uint64
	tickReqs      uint64 // requests drained by those ticks
}

// New opens the server: dispatcher (recovering any existing shard
// journals), descriptor log, and — before New returns — the replay of
// every logged descriptor through the dispatcher. Replayed descriptors
// the journals recorded as performed resolve Recovered without running;
// the rest re-execute. New does not listen; call Listen.
func New(o Options) (*Server, error) {
	s, recs, err := open(o)
	if err != nil {
		return nil, err
	}
	replayErr := make(chan error, 1)
	s.coreWG.Add(1)
	go s.coreLoop(recs, replayErr)
	if err := <-replayErr; err != nil {
		s.coreWG.Wait()
		s.d.Close()
		s.log.close()
		return nil, err
	}
	return s, nil
}

// open is New minus the core loop: the server and its log's descriptors,
// nothing replayed, no goroutine started.
func open(o Options) (*Server, []job, error) {
	if o.Registry == nil {
		return nil, nil, errors.New("jobd: Options.Registry is required")
	}
	if o.Backend == "" {
		o.Backend = "atomic"
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 1 << 20
	}
	if o.LogCells == 0 {
		o.LogCells = 1 << 20
	}
	if o.MaxPayload == 0 {
		o.MaxPayload = 1 << 20
	}
	if o.MaxJobs < 0 || o.LogCells < 0 || o.MaxPayload < 0 {
		return nil, nil, fmt.Errorf("jobd: MaxJobs %d, LogCells %d and MaxPayload %d must not be negative (0 = default)", o.MaxJobs, o.LogCells, o.MaxPayload)
	}
	if o.MaxPayload > wire.MaxFrame-1024 {
		return nil, nil, fmt.Errorf("jobd: MaxPayload %d exceeds the frame ceiling", o.MaxPayload)
	}
	// The dispatcher decides from the spec whether it keeps journal rows.
	d, err := dispatch.New(dispatch.Config{
		Shards:          o.Shards,
		WorkersPerShard: o.Workers,
		MaxBatch:        o.MaxBatch,
		Backend:         o.Backend,
		MaxJobs:         o.MaxJobs,
		JournalBatch:    o.JournalBatch,
		Metrics:         true,
		MetricsAddr:     o.MetricsAddr,
		TraceSampleRate: o.TraceSampleRate,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("jobd: open dispatcher: %w", err)
	}
	// The descriptor log, like the journal rows, is a record for a
	// successor process: a volatile backend can have none, so none is
	// opened and the log keeps nothing.
	dlog, recs := &descLog{}, []job(nil)
	if !membackend.Volatile(o.Backend) {
		bs, cell0, err := membackend.OpenEach(o.Backend, o.LogCells, membackend.Instance{Suffix: ".desclog", Stamp: logMagic})
		if err != nil {
			d.Close()
			return nil, nil, fmt.Errorf("jobd: open descriptor log: %w", err)
		}
		if dlog, recs, err = openDescLog(bs[0], cell0[0], o.Backend+".desclog"); err != nil {
			d.Close()
			return nil, nil, err
		}
	}
	s := &Server{
		opts:    o,
		reg:     o.Registry,
		d:       d,
		log:     dlog,
		inWake:  make(chan struct{}, 1),
		quit:    make(chan struct{}),
		tenants: make(map[string]*tenantState),
		subs:    make(map[string]map[*conn]struct{}),
	}
	s.room.L = &s.inMu
	for name, lim := range o.Tenants {
		s.tenants[name] = &tenantState{limits: lim}
	}
	return s, recs, nil
}

// Listen binds addr (":0" picks a port) and starts serving; it returns
// the bound address. A server listens once, and not after Close.
func (s *Server) Listen(addr string) (string, error) {
	bound, err := s.srv.Listen(addr, s.accept)
	if err != nil {
		return "", err
	}
	// The record says which side of membackend.Volatile this server is
	// on: durable=false means nothing it admits survives it. It is Debug,
	// like jobd_closed and jobd_replayed: the flight ring keeps all three,
	// and amo-jobd prints the same on its own listening line.
	durable := !membackend.Volatile(s.opts.Backend)
	attrs := []any{"addr", bound, "backend", s.opts.Backend, "durable", durable}
	if durable {
		attrs = append(attrs, "max_jobs", s.opts.MaxJobs, "log_cells", s.opts.LogCells)
	}
	eventlog.Logger().Debug("jobd_listen", attrs...)
	return bound, nil
}

// accept builds the connection over nc for the server core: it starts
// the writer, and hands over the reader as the handler and close as the
// hang-up.
func (s *Server) accept(nc net.Conn) (serve, hangUp func()) {
	c := newConn(s, nc)
	jdConns.Add(1)
	jdConnsTot.Inc()
	if eventlog.SinkEnabled(slog.LevelDebug) {
		eventlog.Logger().Debug("jobd_conn_open", "remote", nc.RemoteAddr().String())
	}
	s.connWG.Add(2)
	go c.writeLoop()
	return func() {
		c.readLoop()
		jdConns.Add(-1)
		s.post(coreReq{op: opConnGone, c: c}, false) // the core drops the conn's subscriptions
		if eventlog.SinkEnabled(slog.LevelDebug) {
			eventlog.Logger().Debug("jobd_conn_close", "remote", nc.RemoteAddr().String())
		}
	}, c.close
}

// OpsAddr returns the ops endpoint's bound address ("" without one).
func (s *Server) OpsAddr() string { return s.d.OpsAddr() }

// Close drains and shuts down: stop accepting, hang up every
// connection, let the core finish its queued requests, flush the
// dispatcher so every admitted job resolves (and its completion is
// accounted), then close the dispatcher and the descriptor log.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	s.srv.Close()
	s.connWG.Wait() // the writers

	// All readers are gone; a barrier guarantees the core has processed
	// every request they enqueued before we flush.
	s.barrier()
	s.d.Flush()
	// Flush returns only after every job's Resolved ran (it fires before
	// the dispatcher's pending count drops), so every completion is queued:
	// this barrier's tick and the final one at quit take them to the ledger.
	s.barrier()

	close(s.quit)
	s.coreWG.Wait()
	err := s.d.Close()
	if lerr := s.log.close(); err == nil {
		err = lerr
	}
	eventlog.Logger().Debug("jobd_closed")
	return err
}

// barrier returns once a tick has decided, logged and submitted
// everything queued before it.
func (s *Server) barrier() {
	ch := make(chan struct{})
	s.post(coreReq{op: opBarrier, barrier: ch}, false)
	<-ch
}

// maxTickReqs bounds the requests a tick takes from readers, however
// fast they refill the inbox. tickKeep is the most entries an inbox or
// tick-scratch buffer keeps between ticks: one a burst grew past it is
// left to the collector.
const (
	maxTickReqs = 1024
	tickKeep    = 256
)

// post queues one request for the core loop. A reader's request (wait)
// waits while maxTickReqs are queued, and is dropped, reporting false,
// once its connection has closed. The barrier and connection-gone never
// wait: no reader is left to drain, or one must not wait to be forgotten.
func (s *Server) post(r coreReq, wait bool) bool {
	s.inMu.Lock()
	for wait && len(s.reqQ) >= maxTickReqs {
		select {
		case <-r.c.done: // conn.close broadcasts after closing it
			s.inMu.Unlock()
			return false
		default:
		}
		jdInboxWaits.Inc()
		s.room.Wait()
	}
	s.reqQ = append(s.reqQ, r)
	s.inMu.Unlock()
	s.nudge()
	return true
}

// postDone queues a completion. It never waits: it is called from shard
// loop goroutines and — for journal-recovered jobs — synchronously from
// the core loop's own DoRunners call, so a bound here could deadlock the
// server against itself (admission bounds the unresolved jobs instead).
func (s *Server) postDone(m doneMsg) {
	s.inMu.Lock()
	s.doneQ = append(s.doneQ, m)
	s.inMu.Unlock()
	s.nudge()
}

func (s *Server) nudge() {
	select {
	case s.inWake <- struct{}{}:
	default: // a wake-up is already pending; the take it leads to sees this entry too
	}
}

// take takes everything the inbox holds, leaving the spare buffers in
// its place, and lets the readers waiting for room in.
func (s *Server) take() ([]coreReq, []doneMsg) {
	s.inMu.Lock()
	reqs, done := s.reqQ, s.doneQ
	s.reqQ, s.doneQ = s.reqSpare[:0], s.doneSpare[:0]
	if len(reqs) >= maxTickReqs {
		s.room.Broadcast()
	}
	s.inMu.Unlock()
	return reqs, done
}

// turn is one pass of the core loop: take, tick, and keep the buffers no
// burst grew past tickKeep, cleared: an idle server pins no jobs or errors.
func (s *Server) turn() {
	reqs, done := s.take()
	if len(reqs) > 0 || len(done) > 0 {
		s.tick(reqs, done)
	}
	s.reqSpare, s.doneSpare = shed(reqs), shed(done)
	s.verdicts, s.batch, s.touched = shed(s.verdicts), shed(s.batch), shed(s.touched)
}

func shed[T any](b []T) []T {
	if cap(b) > tickKeep {
		return nil
	}
	clear(b)
	return b[:0]
}

// coreLoop is the authoritative loop: sole owner of the tenant ledger,
// the subscriber registry, the descriptor log and the dispatcher's
// submit path, and the only taker from the inbox. It replays the log
// (signalling replayErr), then until quit waits for a nudge and turns.
func (s *Server) coreLoop(recs []job, replayErr chan<- error) {
	defer s.coreWG.Done()
	err := s.replay(recs)
	replayErr <- err
	if err != nil {
		return
	}
	for quit := false; !quit; {
		select {
		case <-s.inWake:
		case <-s.quit:
			quit = true // final tick: the readers are gone, completions flushed
		}
		s.turn()
	}
}

// replay re-submits the logged descriptors, in log order, through the
// batch call the ticks use. No admission checks: a previous incarnation
// admitted them, and each MUST be re-submitted for the id stream to line
// up with the shard journals — record n is job n — even if its tenant or
// task has since vanished from the configuration (a task no longer
// registered resolves performed-with-error, see job.Run).
func (s *Server) replay(recs []job) error {
	for lo := 0; lo < len(recs); lo += maxTickReqs {
		chunk := recs[lo:min(lo+maxTickReqs, len(recs))]
		s.batch = s.batch[:0]
		for i := range chunk {
			j := &chunk[i]
			j.s, j.fn = s, s.reg.lookup(j.task, j.version)
			if j.fn == nil {
				eventlog.Logger().Warn("jobd_replay_task_missing", "task", j.task, "version", j.version, "tenant", j.tenant)
			}
			s.charge(j, 1)
			s.batch = append(s.batch, j.runnerTask())
		}
		jdReplayed.Add(uint64(len(chunk)))
		s.replayed += uint64(len(chunk))
		first, err := s.d.DoRunners(context.Background(), s.batch)
		if err == nil && first != uint64(lo+1) {
			err = fmt.Errorf("leased id %d: the dispatcher's id cursor is not at the log's ordinal", first)
		}
		if err != nil {
			return fmt.Errorf("jobd: replay descriptors %d..%d of %d: %w", lo+1, lo+len(chunk), len(recs), err)
		}
	}
	s.batch = shed(s.batch)
	// Record-then-do: every journaled id has a committed descriptor, so
	// the replay claimed them all. One left over is a job whose descriptor
	// is gone; a new submission leased onto its id would resolve Recovered
	// and never run.
	if left, lowest := s.d.UnclaimedRecovered(); left > 0 {
		return fmt.Errorf("jobd: the shard journals record %d performed jobs the descriptor log does not hold (lowest id %d; the log holds %d records): the log was lost or cut short; the journals are left as they are — restore the log, or start jobd stores fresh", left, lowest, len(recs))
	}
	if n := len(recs); n > 0 {
		s.replayHorizon = uint64(n)
		eventlog.Logger().Debug("jobd_replayed", "descriptors", n, "horizon_id", s.replayHorizon)
	}
	return nil
}

// tenantLedger returns (creating if needed) the ledger entry for a
// tenant. Creation happens for configured tenants at New, for
// default-limit tenants at first admission, and for replayed tenants
// that are no longer configured (zero limits: the ledger must balance
// regardless of today's config).
func (s *Server) tenantLedger(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		if s.opts.DefaultLimits != nil {
			ts.limits = *s.opts.DefaultLimits
		}
		s.tenants[name] = ts
	}
	return ts
}

// charge books j — just admitted, or replayed — on its tenant's ledger
// and the id budget; n = -1 takes the booking back.
func (s *Server) charge(j *job, n int) {
	ts := s.tenantLedger(j.tenant)
	ts.pending += n
	if dispatch.Priority(j.pri) == dispatch.High {
		ts.high += n
	}
	ts.admitted += uint64(n)
	s.admitted += uint64(n)
}

// tick is one authoritative step of the server: what arrived since the
// last one — inbox in arrival order, done in resolution order — applied
// in five phases of fixed order. Its inputs are arguments and it reads
// no channel, so a test (or a simulator) can drive it by hand.
//
//  1. decide every request in arrival order against the running ledger;
//  2. ONE log commit for the tick's admitted descriptors;
//  3. ONE batch submit into the dispatcher, ids first, first+1, …;
//  4. every reply, in a second arrival-order walk;
//  5. completions applied to the ledger and fanned out;
//
// then one wake-up per connection with frames queued. Replies are a
// second walk because an ack carries an id and ids exist only once the
// whole tick is logged and leased; re-walking the inbox keeps every
// connection's replies in its request order by construction. On a
// volatile backend the log keeps nothing (see descLog): phase 2 writes
// nothing and decide never finds the log full; the rest is the same.
func (s *Server) tick(inbox []coreReq, done []doneMsg) {
	s.ticks++
	s.tickReqs += uint64(len(inbox))
	jdTicks.Inc()
	jdTickReqs.Observe(uint64(len(inbox)))

	// (1) Decide. Rejections come before the log and the id lease, so
	// they burn nothing; an admission is charged at once, so quotas bind
	// mid-tick exactly as they do across ticks.
	s.verdicts, s.batch = s.verdicts[:0], s.batch[:0]
	cells := 0 // log room this tick's admissions have claimed
	for i := range inbox {
		r := &inbox[i]
		var v verdict
		switch r.op {
		case jopSubmit:
			if v = s.decide(r.j, cells); v.adm == admAccepted {
				cells += recCells(r.j.encodedLen())
				s.charge(r.j, 1)
				s.batch = append(s.batch, r.j.runnerTask())
			}
		case jopSubscribe:
			if s.subs[r.tenant] == nil {
				s.subs[r.tenant] = make(map[*conn]struct{})
			}
			s.subs[r.tenant][r.c] = struct{}{}
			r.c.tenants[r.tenant] = struct{}{}
		case jopUnsubscribe:
			s.unsubscribe(r.c, r.tenant)
			delete(r.c.tenants, r.tenant)
		case opConnGone:
			// r.c.tenants is core-owned (touched only in this switch).
			for tenant := range r.c.tenants {
				s.unsubscribe(r.c, tenant)
			}
		}
		s.verdicts = append(s.verdicts, v)
	}

	// (2) Log, then (3) submit: every id the journals can record has a
	// descriptor to replay. A failure of either is an invariant breach,
	// not a load condition; nothing was acked yet, and every admission
	// turns into a rejection.
	var first uint64
	if len(s.batch) > 0 {
		for i := range s.batch {
			s.log.stage(&s.batch[i].Runner.(*job).desc)
		}
		err, failed := s.log.commit(), "descriptor log commit failed"
		if err == nil {
			// Cannot fail by construction (unbounded queue, exact id
			// budget); if it ever does, log and journal have diverged.
			first, err = s.d.DoRunners(context.Background(), s.batch)
			failed = "submission failed after log commit"
		}
		if err != nil {
			eventlog.CrashDump("jobd_tick_failed", "what", failed, "err", err, "descriptors", len(s.batch))
			s.unadmit(inbox, failed)
		}
		clear(s.batch) // the dispatcher holds the jobs now
	}

	// (4) Reply.
	for i := range inbox {
		r, v := &inbox[i], &s.verdicts[i]
		switch r.op {
		case jopSubmit:
			jdSubmits[v.adm].Inc()
			if v.adm == admAccepted {
				var buf [8]byte
				s.reply(r.c, jopSubmitOK, r.seq, wire.AppendU64(buf[:0], first))
				first++
				break
			}
			if ts := s.tenants[r.j.tenant]; ts != nil {
				ts.rejected++
			}
			r.j.payload = nil
			s.replyErr(r.c, r.seq, v.code, v.msg)
		case jopSubscribe, jopUnsubscribe, jopPing:
			s.reply(r.c, jopAck, r.seq, nil)
		case jopStats:
			if b, err := json.Marshal(s.statsLocked()); err != nil {
				s.replyErr(r.c, r.seq, codeProto, "stats encoding failed")
			} else {
				s.reply(r.c, jopStatsOK, r.seq, b)
			}
		case opBarrier:
			close(r.barrier)
		}
	}

	// (5) Complete.
	for i := range done {
		s.complete(&done[i])
	}

	for i, c := range s.touched {
		c.dirty = false
		c.wake()
		s.touched[i] = nil
	}
	s.touched = s.touched[:0]
}

// decide runs the admission checks for one submission (cells: the log
// room the tick's earlier admissions claimed). Their order is part of
// the contract: the first failing check names the rejection.
func (s *Server) decide(j *job, cells int) verdict {
	ts := s.tenants[j.tenant]
	switch {
	case s.closing.Load():
		return verdict{admClosed, codeClosed, "server closing"}
	case len(j.payload) > s.opts.MaxPayload:
		return verdict{admTooBig, codeTooBig, fmt.Sprintf("payload %d exceeds limit %d", len(j.payload), s.opts.MaxPayload)}
	case ts == nil && s.opts.DefaultLimits == nil:
		return verdict{admUnknownTenant, codeTenant, fmt.Sprintf("unknown tenant %q", j.tenant)}
	case j.fn == nil:
		return verdict{admUnknownTask, codeUnknownTask, fmt.Sprintf("unknown task %s@v%d", j.task, j.version)}
	case ts != nil && ts.limits.MaxPending > 0 && ts.pending >= ts.limits.MaxPending:
		return verdict{admQuota, codeQuota, fmt.Sprintf("tenant %q at MaxPending %d", j.tenant, ts.limits.MaxPending)}
	case ts != nil && ts.limits.MaxHigh > 0 && dispatch.Priority(j.pri) == dispatch.High && ts.high >= ts.limits.MaxHigh:
		return verdict{admQuota, codeQuota, fmt.Sprintf("tenant %q at MaxHigh %d", j.tenant, ts.limits.MaxHigh)}
	case s.admitted >= uint64(s.opts.MaxJobs):
		// Exact — ids are log ordinals, one per admission — which keeps
		// dispatch.ErrJournalFull unreachable once the tick is logged.
		return verdict{admCapacity, codeCapacity, "server job-id budget exhausted"}
	case !s.log.hasRoom(cells, j.encodedLen()):
		return verdict{admCapacity, codeCapacity, "descriptor log full"}
	}
	return verdict{}
}

// unadmit turns every admission of the tick into a codeCapacity
// rejection and takes its charge back off the ledger.
func (s *Server) unadmit(inbox []coreReq, msg string) {
	for i := range inbox {
		if v := &s.verdicts[i]; inbox[i].op == jopSubmit && v.adm == admAccepted {
			s.charge(inbox[i].j, -1)
			*v = verdict{admCapacity, codeCapacity, msg}
		}
	}
}

func (s *Server) unsubscribe(c *conn, tenant string) {
	if set := s.subs[tenant]; set != nil {
		delete(set, c)
		if len(set) == 0 {
			delete(s.subs, tenant)
		}
	}
}

// reply and replyErr queue one reply frame for c; touch notes that c's
// writer is owed its one wake-up at the end of the tick.
func (s *Server) reply(c *conn, op byte, seq uint32, payload []byte) {
	c.sendReply(op, seq, payload)
	s.touch(c)
}

func (s *Server) replyErr(c *conn, seq uint32, code uint16, msg string) {
	c.sendErr(seq, code, msg)
	s.touch(c)
}

func (s *Server) touch(c *conn) {
	if !c.dirty {
		c.dirty = true
		s.touched = append(s.touched, c)
	}
}

// complete applies one resolved job to the ledger and fans its event
// out to the tenant's subscribers. Exactly-once delivery of the
// RESOLUTION is inherited from the dispatcher (Runner.Resolved fires
// once per job); event DELIVERY to any one subscriber is best-effort —
// a full outbound queue drops the event and counts it.
func (s *Server) complete(m *doneMsg) {
	j := m.j
	j.payload = nil // resolved: its read chunk is not this job's to pin any more
	ts := s.tenantLedger(j.tenant)
	ts.pending--
	if dispatch.Priority(j.pri) == dispatch.High {
		ts.high--
	}
	status := evOK
	errmsg := ""
	switch {
	case m.r.Recovered:
		status = evRecovered
	case m.r.Cancelled:
		status = evCancelled
	case m.r.Expired:
		status = evExpired
	case m.r.Err != nil:
		status = evError
		errmsg = m.r.Err.Error()
	}
	obsDone(status)
	if m.r.ID <= s.replayHorizon && (status == evOK || status == evError) {
		jdReexec.Inc()
		s.reexecuted++
	}
	set := s.subs[j.tenant]
	if len(set) == 0 {
		return
	}
	p := wire.AppendStr(s.evBuf[:0], j.tenant)
	p = wire.AppendU64(p, m.r.ID)
	p = append(p, status)
	p = wire.AppendStr(p, j.task)
	p = wire.AppendStr(p, errmsg)
	s.evBuf = p
	// Encoded once; every subscriber's queue takes a copy. An event that
	// does not fit is dropped and counted (see connOutDepth).
	for c := range set {
		if c.enqueue(jopEvent, 0, p) {
			jdEvStream.Inc()
			s.touch(c)
		} else {
			jdEvDropped.Inc()
		}
	}
}

// ServerStats is the jopStats document.
type ServerStats struct {
	Incarnation string                 `json:"incarnation"`
	Tasks       []string               `json:"tasks"`
	Admitted    uint64                 `json:"admitted"`
	Replayed    uint64                 `json:"replayed"`
	Reexecuted  uint64                 `json:"reexecuted"`
	Ticks       uint64                 `json:"ticks"`         // core-loop ticks run so far
	TickReqs    uint64                 `json:"tick_requests"` // requests those ticks drained
	ConnReads   uint64                 `json:"conn_reads"`    // socket Reads the connection readers issued (amo_jobd_conn_reads_total)
	ConnWrites  uint64                 `json:"conn_writes"`   // socket Writes the connection writers issued (amo_jobd_conn_writes_total)
	Tenants     map[string]TenantStats `json:"tenants"`
	Jobs        JobStats               `json:"jobs"`
}

// TenantStats is one tenant's ledger snapshot.
type TenantStats struct {
	Pending     int    `json:"pending"`
	PendingHigh int    `json:"pending_high"`
	Admitted    uint64 `json:"admitted"`
	Rejected    uint64 `json:"rejected"`
}

// JobStats summarizes the dispatcher underneath.
type JobStats struct {
	Submitted  uint64 `json:"submitted"`
	Performed  uint64 `json:"performed"`
	Pending    uint64 `json:"pending"`
	Recovered  uint64 `json:"recovered"`
	Expired    uint64 `json:"expired"`
	Cancelled  uint64 `json:"cancelled"`
	Duplicates uint64 `json:"duplicates"`
}

// statsLocked builds the stats document. Core loop only.
func (s *Server) statsLocked() ServerStats {
	st := s.d.Stats()
	out := ServerStats{
		Incarnation: obs.IncarnationString(),
		Tasks:       s.reg.Tasks(),
		Admitted:    s.admitted,
		Replayed:    s.replayed,
		Reexecuted:  s.reexecuted,
		Ticks:       s.ticks,
		TickReqs:    s.tickReqs,
		ConnReads:   jdConnReads.Value(),
		ConnWrites:  jdConnWrites.Value(),
		Tenants:     make(map[string]TenantStats, len(s.tenants)),
		Jobs: JobStats{
			Submitted:  st.Submitted,
			Performed:  st.Performed,
			Pending:    st.Pending,
			Recovered:  st.Recovered,
			Expired:    st.Expired,
			Cancelled:  st.Cancelled,
			Duplicates: st.Duplicates,
		},
	}
	for name, ts := range s.tenants {
		out.Tenants[name] = TenantStats{
			Pending:     ts.pending,
			PendingHigh: ts.high,
			Admitted:    ts.admitted,
			Rejected:    ts.rejected,
		}
	}
	return out
}
