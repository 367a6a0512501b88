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
	"time"

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
	// Backend is the membackend spec family backing the dispatcher
	// shards (".shard<i>" suffixes) and the descriptor log (".desclog").
	// Empty means "atomic": volatile, nothing survives the process.
	Backend string
	// MaxJobs is the durable id budget across restarts (dispatch.Config
	// MaxJobs). Default 1 << 20.
	MaxJobs int
	// LogCells sizes the descriptor log in 8-byte register cells.
	// Default 1 << 20 (8 MiB) — roughly MaxJobs small descriptors. A
	// full log rejects further submissions with codeCapacity.
	LogCells int
	// MaxPayload caps one submission's payload bytes. Default 1 << 20;
	// hard ceiling just under wire.MaxFrame.
	MaxPayload int

	// Shards, Workers, MaxBatch, JournalBatch and RoundTarget pass
	// through to dispatch.Config. The dispatcher queue is always
	// UNBOUNDED here: all backpressure lives in jobd's admission (tenant
	// quotas and the id budget), checked before an id exists — a Do that
	// could fail after the descriptor is logged would desync log and
	// journal.
	Shards       int
	Workers      int
	MaxBatch     int
	JournalBatch int
	RoundTarget  time.Duration

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

// doneMsg carries one job completion from a dispatcher callback into
// the core loop.
type doneMsg struct {
	tenant string
	task   string
	pri    dispatch.Priority
	r      dispatch.JobResult
}

// Core-request kinds (coreReq.op reuses wire op codes; opConnGone is
// the internal "connection died, forget its subscriptions" sentinel).
const opConnGone byte = 0xfe
const opBarrier byte = 0xff

// coreReq is one request routed from a connection reader (or Close)
// into the core loop.
type coreReq struct {
	op      byte
	c       *conn
	seq     uint32
	d       desc          // jopSubmit
	tenant  string        // jopSubscribe / jopUnsubscribe
	barrier chan struct{} // opBarrier: closed when the core reaches it
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
// architecture; the load-bearing invariant is that coreLoop is the ONLY
// goroutine that touches tenants, subs, the descriptor log or the
// dispatcher's submit path.
type Server struct {
	opts Options
	reg  *Registry
	d    *dispatch.Dispatcher
	log  *descLog

	reqs     chan coreReq
	doneMu   sync.Mutex
	doneQ    []doneMsg // completions not yet drained; guarded by doneMu
	doneWake chan struct{}
	quit     chan struct{}
	coreWG   sync.WaitGroup

	closing atomic.Bool
	ln      net.Listener
	lnMu    sync.Mutex
	connWG  sync.WaitGroup
	connMu  sync.Mutex
	conns   map[*conn]struct{}

	nShards int // resolved shard count, for the id-margin capacity check

	// Core-owned state — coreLoop only, no locks.
	tenants       map[string]*tenantState
	subs          map[string]map[*conn]struct{}
	doneSpare     []doneMsg // drainDone's other buffer: swapped with doneQ per drain
	evBuf         []byte    // complete's event-payload scratch, reused
	admitted      uint64    // successful Do calls, replay included
	replayed      uint64
	reexecuted    uint64
	replayHorizon uint64 // max id assigned during replay; 0 = none
}

// idMargin is the headroom the capacity check keeps between admitted
// submissions and MaxJobs: each shard holds a partially consumed leased
// id block (idBlock = 64 ids), so the ids drawn from the journal budget
// can exceed the submission count by strictly less than 64 per shard.
// Keeping this margin makes dispatch.ErrJournalFull unreachable on the
// admission path — which must be true, because by Do time the
// descriptor is already in the log.
const idMargin = 64

// New opens the server: dispatcher (recovering any existing shard
// journals), descriptor log, and — before New returns — the replay of
// every logged descriptor through the dispatcher. Replayed descriptors
// the journals recorded as performed resolve Recovered without running;
// the rest re-execute. New does not listen; call Listen.
func New(o Options) (*Server, error) {
	if o.Registry == nil {
		return nil, errors.New("jobd: Options.Registry is required")
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
	if o.MaxPayload > wire.MaxFrame-1024 {
		return nil, fmt.Errorf("jobd: MaxPayload %d exceeds the frame ceiling", o.MaxPayload)
	}
	spec := o.Backend
	d, err := dispatch.New(dispatch.Config{
		Shards:       o.Shards,
		Workers:      o.Workers,
		MaxBatch:     o.MaxBatch,
		JournalBatch: o.JournalBatch,
		RoundTarget:  o.RoundTarget,
		NewMem: func(shard, size int) (membackend.Backend, error) {
			return membackend.Open(membackend.ShardSpec(spec, shard), size)
		},
		MaxJobs:         o.MaxJobs,
		Metrics:         true,
		MetricsAddr:     o.MetricsAddr,
		TraceSampleRate: o.TraceSampleRate,
	})
	if err != nil {
		return nil, fmt.Errorf("jobd: open dispatcher: %w", err)
	}
	dlog, recs, err := openDescLog(membackend.WithSuffix(spec, ".desclog"), o.LogCells)
	if err != nil {
		d.Close()
		return nil, err
	}
	s := &Server{
		opts:     o,
		reg:      o.Registry,
		d:        d,
		log:      dlog,
		reqs:     make(chan coreReq, 1024),
		doneWake: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		conns:    make(map[*conn]struct{}),
		tenants:  make(map[string]*tenantState),
		subs:     make(map[string]map[*conn]struct{}),
	}
	s.nShards = len(d.Stats().Shards)
	for name, lim := range o.Tenants {
		s.tenants[name] = &tenantState{limits: lim}
	}
	replayErr := make(chan error, 1)
	s.coreWG.Add(1)
	go s.coreLoop(recs, replayErr)
	if err := <-replayErr; err != nil {
		close(s.quit)
		s.coreWG.Wait()
		d.Close()
		dlog.close()
		return nil, err
	}
	return s, nil
}

// Listen binds addr (":0" picks a port) and starts serving; it returns
// the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	eventlog.Logger().Info("jobd_listen", "addr", ln.Addr().String(), "backend", s.opts.Backend)
	s.connWG.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// OpsAddr returns the ops endpoint's bound address ("" without
// MetricsAddr).
func (s *Server) OpsAddr() string { return s.d.OpsAddr() }

// Tracer returns the dispatcher's tracer (nil without a sample rate).
func (s *Server) Tracer() *obs.Tracer { return s.d.Tracer() }

// Registry returns the dispatcher's metric registry.
func (s *Server) Registry() *obs.Registry { return s.d.Registry() }

// Close drains and shuts down: stop accepting, hang up every
// connection, let the core finish its queued requests, flush the
// dispatcher so every admitted job resolves (and its completion is
// accounted), then close the dispatcher and the descriptor log.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()

	// All readers are gone; a barrier guarantees the core has processed
	// every request they enqueued before we flush.
	s.barrier()
	s.d.Flush()
	// Flush returns only after every completion callback ran (callbacks
	// fire before the dispatcher's pending count drops), so one more
	// barrier drains the completion queue through the core's ledger.
	s.barrier()

	close(s.quit)
	s.coreWG.Wait()
	err := s.d.Close()
	if lerr := s.log.close(); err == nil {
		err = lerr
	}
	eventlog.Logger().Info("jobd_closed")
	return err
}

// barrier round-trips a sentinel through the core loop.
func (s *Server) barrier() {
	ch := make(chan struct{})
	s.reqs <- coreReq{op: opBarrier, barrier: ch}
	<-ch
}

// enqueueDone hands a completion to the core loop. It must never block:
// it is called from shard loop goroutines and — for journal-recovered
// jobs — synchronously from the core loop's own Do call, so a bounded
// channel here could deadlock the server against itself. The queue is
// a mutex-guarded slice (bounded in practice by admitted-but-unresolved
// jobs) plus a 1-buffered wake signal.
func (s *Server) enqueueDone(m doneMsg) {
	s.doneMu.Lock()
	s.doneQ = append(s.doneQ, m)
	s.doneMu.Unlock()
	select {
	case s.doneWake <- struct{}{}:
	default:
	}
}

// doneKeep is the largest completion buffer drainDone holds on to (in
// entries); one grown past it by a backlog is left to the collector.
const doneKeep = 4096

// drainDone applies every queued completion to the core ledger. The
// queue is double-buffered: the drained buffer becomes the next drain's
// empty one instead of garbage.
func (s *Server) drainDone() {
	s.doneMu.Lock()
	q := s.doneQ
	s.doneQ = s.doneSpare[:0]
	s.doneMu.Unlock()
	for i := range q {
		s.complete(&q[i])
	}
	clear(q) // drop the entries' string and error references
	if cap(q) > doneKeep {
		q = nil
	}
	s.doneSpare = q
}

// coreLoop is the authoritative loop: sole owner of the tenant ledger,
// the subscriber registry, the descriptor log and the dispatcher's
// submit path. It first replays the log (signalling replayErr), then
// serves requests and completions until quit.
func (s *Server) coreLoop(recs []desc, replayErr chan<- error) {
	defer s.coreWG.Done()
	for i := range recs {
		if err := s.replayOne(&recs[i]); err != nil {
			replayErr <- fmt.Errorf("jobd: replay descriptor %d/%d: %w", i+1, len(recs), err)
			return
		}
	}
	if n := len(recs); n > 0 {
		eventlog.Logger().Info("jobd_replayed", "descriptors", n, "horizon_id", s.replayHorizon)
	}
	replayErr <- nil
	for {
		s.drainDone()
		select {
		case r := <-s.reqs:
			s.handleReq(&r)
		case <-s.doneWake:
		case <-s.quit:
			// Final drain: no new requests can arrive (readers are gone
			// before quit), completions are already flushed.
			for {
				select {
				case r := <-s.reqs:
					s.handleReq(&r)
				default:
					s.drainDone()
					return
				}
			}
		}
	}
}

// replayOne re-submits one logged descriptor. No admission checks: the
// descriptor was admitted by a previous incarnation and MUST be
// re-submitted in log order for the id stream to line up with the shard
// journals — even if the tenant or the task has since vanished from the
// configuration. A descriptor whose task is no longer registered
// resolves as performed-with-error instead of executing.
func (s *Server) replayOne(d *desc) error {
	fn := s.reg.lookup(d.task, d.version)
	if fn == nil {
		name, ver := d.task, d.version
		eventlog.Logger().Warn("jobd_replay_task_missing", "task", name, "version", ver, "tenant", d.tenant)
		fn = func(context.Context, []byte) error {
			return fmt.Errorf("jobd: task %s@v%d no longer registered", name, ver)
		}
	}
	jdReplayed.Inc()
	s.replayed++
	id, err := s.submitDesc(d, fn)
	if err != nil {
		return err
	}
	if id > s.replayHorizon {
		s.replayHorizon = id
	}
	return nil
}

// submitDesc is the single dispatcher-submission site: it charges the
// tenant ledger and calls Do. Callers have already appended d to the
// log (admission) or are replaying it from the log.
func (s *Server) submitDesc(d *desc, fn TaskFunc) (uint64, error) {
	ts := s.tenantLedger(d.tenant)
	// Two heap objects per job, one per closure; both capture by value
	// (nothing below reassigns what they close over), so neither drags a
	// boxed variable along.
	payload, tenant, task, pri := d.payload, d.tenant, d.task, dispatch.Priority(d.pri)
	t := dispatch.Task{
		Fn:       func(ctx context.Context) error { return fn(ctx, payload) },
		Priority: pri,
		Callback: func(r dispatch.JobResult) {
			s.enqueueDone(doneMsg{tenant: tenant, task: task, pri: pri, r: r})
		},
	}
	if d.deadline != 0 {
		t.Deadline = time.Unix(0, d.deadline)
	}
	h, err := s.d.Do(context.Background(), t)
	if err != nil {
		return 0, err
	}
	ts.pending++
	if t.Priority == dispatch.High {
		ts.high++
	}
	ts.admitted++
	s.admitted++
	return h.ID, nil
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

// handleReq dispatches one core request.
func (s *Server) handleReq(r *coreReq) {
	switch r.op {
	case jopSubmit:
		s.admit(r)
	case jopSubscribe:
		set := s.subs[r.tenant]
		if set == nil {
			set = make(map[*conn]struct{})
			s.subs[r.tenant] = set
		}
		set[r.c] = struct{}{}
		r.c.tenants[r.tenant] = struct{}{}
		r.c.sendReply(jopAck, r.seq, nil)
	case jopUnsubscribe:
		if set := s.subs[r.tenant]; set != nil {
			delete(set, r.c)
			if len(set) == 0 {
				delete(s.subs, r.tenant)
			}
		}
		delete(r.c.tenants, r.tenant)
		r.c.sendReply(jopAck, r.seq, nil)
	case jopStats:
		b, err := json.Marshal(s.statsLocked())
		if err != nil {
			r.c.sendErr(r.seq, codeProto, "stats encoding failed")
			return
		}
		r.c.sendReply(jopStatsOK, r.seq, b)
	case jopPing:
		r.c.sendReply(jopAck, r.seq, nil)
	case opConnGone:
		// r.c.tenants is core-owned state (only touched here and in
		// subscribe/unsubscribe above), so this sweep is race-free.
		for tenant := range r.c.tenants {
			if set := s.subs[tenant]; set != nil {
				delete(set, r.c)
				if len(set) == 0 {
					delete(s.subs, tenant)
				}
			}
		}
	case opBarrier:
		close(r.barrier)
	default:
		r.c.sendErr(r.seq, codeProto, fmt.Sprintf("unknown op %d", r.op))
	}
}

// admit runs the admission pipeline for one submission. Order matters:
// every rejection happens BEFORE the log append and the id draw, so
// rejections burn nothing; the log append happens BEFORE Do, so every
// id the journals can record has a descriptor to replay.
func (s *Server) admit(r *coreReq) {
	d := &r.d
	reject := func(adm int, code uint16, msg string) {
		jdSubmits[adm].Inc()
		if ts := s.tenants[d.tenant]; ts != nil {
			ts.rejected++
		}
		r.c.sendErr(r.seq, code, msg)
	}
	if s.closing.Load() {
		reject(admClosed, codeClosed, "server closing")
		return
	}
	if len(d.payload) > s.opts.MaxPayload {
		reject(admTooBig, codeTooBig, fmt.Sprintf("payload %d exceeds limit %d", len(d.payload), s.opts.MaxPayload))
		return
	}
	ts := s.tenants[d.tenant]
	if ts == nil && s.opts.DefaultLimits == nil {
		reject(admUnknownTenant, codeTenant, fmt.Sprintf("unknown tenant %q", d.tenant))
		return
	}
	fn := s.reg.lookup(d.task, d.version)
	if fn == nil {
		reject(admUnknownTask, codeUnknownTask, fmt.Sprintf("unknown task %s@v%d", d.task, d.version))
		return
	}
	if ts != nil {
		if lim := ts.limits.MaxPending; lim > 0 && ts.pending >= lim {
			reject(admQuota, codeQuota, fmt.Sprintf("tenant %q at MaxPending %d", d.tenant, lim))
			return
		}
		if lim := ts.limits.MaxHigh; lim > 0 && dispatch.Priority(d.pri) == dispatch.High && ts.high >= lim {
			reject(admQuota, codeQuota, fmt.Sprintf("tenant %q at MaxHigh %d", d.tenant, lim))
			return
		}
	}
	if s.admitted+idMargin*uint64(s.nShards) >= uint64(s.opts.MaxJobs) {
		reject(admCapacity, codeCapacity, "server job-id budget exhausted")
		return
	}
	// Exact serialized size: two u16-prefixed strings, u32 version, the
	// priority byte, the i64 deadline, the u32-prefixed payload.
	if !s.log.hasRoom(21 + len(d.tenant) + len(d.task) + len(d.payload)) {
		reject(admCapacity, codeCapacity, "descriptor log full")
		return
	}
	// Point of no return: log, then submit. Both failure modes below are
	// invariant breaches, not load conditions.
	if err := s.log.append(d); err != nil {
		reject(admCapacity, codeCapacity, "descriptor log full")
		return
	}
	id, err := s.submitDesc(d, fn)
	if err != nil {
		// Unreachable by construction (unbounded queue + id margin);
		// if it ever fires the log and journal have diverged.
		eventlog.CrashDump("jobd_submit_desync", "err", err, "tenant", d.tenant, "task", d.task)
		reject(admCapacity, codeCapacity, "submission failed after log append")
		return
	}
	jdSubmits[admAccepted].Inc()
	var buf [8]byte
	r.c.sendReply(jopSubmitOK, r.seq, wire.AppendU64(buf[:0], id))
}

// complete applies one resolved job to the ledger and fans its event
// out to the tenant's subscribers. Exactly-once delivery of the
// RESOLUTION is inherited from the dispatcher (Task.Callback fires once
// per job); event DELIVERY to any one subscriber is best-effort —
// a full outbound queue drops the event and counts it.
func (s *Server) complete(m *doneMsg) {
	ts := s.tenantLedger(m.tenant)
	ts.pending--
	if m.pri == dispatch.High {
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
	if m.r.ID != 0 && m.r.ID <= s.replayHorizon && (status == evOK || status == evError) {
		jdReexec.Inc()
		s.reexecuted++
	}
	set := s.subs[m.tenant]
	if len(set) == 0 {
		return
	}
	p := wire.AppendStr(s.evBuf[:0], m.tenant)
	p = wire.AppendU64(p, m.r.ID)
	p = append(p, status)
	p = wire.AppendStr(p, m.task)
	p = wire.AppendStr(p, errmsg)
	s.evBuf = p
	// Encoded once; every subscriber's queue takes a copy. An event that
	// does not fit is dropped and counted (see connOutDepth).
	for c := range set {
		if c.enqueue(jopEvent, 0, p) {
			jdEvStream.Inc()
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

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.connWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if s.closing.Load() {
			nc.Close()
			continue
		}
		c := newConn(s, nc)
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		jdConns.Add(1)
		jdConnsTot.Inc()
		if eventlog.SinkEnabled(slog.LevelDebug) {
			eventlog.Logger().Debug("jobd_conn_open", "remote", nc.RemoteAddr().String())
		}
		s.connWG.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// forget removes a dead connection from the server's tables.
func (s *Server) forget(c *conn) {
	s.connMu.Lock()
	if _, ok := s.conns[c]; !ok {
		s.connMu.Unlock()
		return
	}
	delete(s.conns, c)
	s.connMu.Unlock()
	jdConns.Add(-1)
	// Tell the core to drop the conn's subscriptions. Best effort on a
	// quitting server: the core stops reading reqs only after every
	// reader (including this one) has exited and the Close barrier ran.
	select {
	case s.reqs <- coreReq{op: opConnGone, c: c}:
	case <-s.quit:
	}
}
