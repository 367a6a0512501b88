package netmem

import (
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/wire"
)

// Sentinel errors surfaced by the client.
var (
	// ErrFenced means a newer writer was granted the namespace lease and
	// the server is rejecting this client's writes. The client is dead:
	// continuing would violate the single-writer contract the dispatcher
	// journal depends on. The default OnFatal panics with this error —
	// deliberate process suicide, the fencing analogue of a crash.
	ErrFenced = errors.New("netmem: fenced: a newer writer holds the lease")
	// ErrLeaseHeld is returned by Open in fail-fast mode when another
	// writer holds the lease.
	ErrLeaseHeld = errors.New("netmem: lease held by another writer")
	// ErrClosed is returned by operations after Close.
	ErrClosed = errors.New("netmem: backend is closed")
)

// Options configures a NetMem client. The zero value is usable: 2s
// lease, waiting acquire, panic on fatal errors.
type Options struct {
	// Namespace selects the register set Open attaches on the server
	// (default "default"); OpenSession is given its names instead.
	Namespace string
	// LeaseTTL is the writer-lease duration requested from the server
	// (default 2s, clamped by the server). The client renews every
	// TTL/3.
	LeaseTTL time.Duration
	// FailFast makes Open return ErrLeaseHeld instead of waiting when
	// another writer holds the lease. The default (wait) is what a
	// standby dispatcher wants: block until the incumbent's lease
	// expires, then take over.
	FailFast bool
	// AcquireTimeout bounds how long a waiting Open may block on the
	// lease (0 = no bound).
	AcquireTimeout time.Duration
	// DialTimeout bounds each dial and the handshake replies (default
	// 5s).
	DialTimeout time.Duration
	// RedialAttempts is how many consecutive dial failures the
	// reconnect path tolerates before declaring the backend dead
	// (default 8); RedialBackoff is the initial pause between attempts,
	// doubled each time (default 25ms).
	RedialAttempts int
	RedialBackoff  time.Duration
	// OnFatal is invoked when the backend dies under an interface that
	// cannot return errors (Read/Write): fenced, lease lost during a
	// reconnect, redial budget exhausted. The default panics — for a
	// fenced dispatcher that is correct behavior: a zombie writer must
	// die, not compute on. Override it in tests or in callers with their
	// own shutdown path.
	OnFatal func(error)
	// Logf, when non-nil, receives reconnect and lease events.
	Logf func(format string, args ...any)
}

func (o *Options) normalize() {
	if o.Namespace == "" {
		o.Namespace = "default"
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 8
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 25 * time.Millisecond
	}
	if o.OnFatal == nil {
		o.OnFatal = func(err error) { panic(err) }
	}
}

// regCall is a register op's request fields and decoded reply.
type regCall struct {
	ns       *NetMem       // the namespace the op names
	addr     int           // the first cell; hello's reply: the handle
	cell     [1]int64      // a Read's or Write's one cell, so its vals cost no allocation; hello's cell 0, acquire's epoch
	vals     []int64       // a write's values; a range read's destination
	ttl      time.Duration // the lease acquire granted
	reopened bool          // hello's reply
}

var calls wire.Pool[regCall]

// session is one connection to a register server and the namespaces
// attached over it, through the client core (wire.Client): one reader,
// one combining writer, one renew loop and one redial for all of them,
// and one client identity, the lease holder of each. Its namespaces are
// one incarnation: a fence or a spent redial on any of them kills the
// session, and OnFatal fires once.
type session struct {
	addr     string
	opts     Options
	clientID uint64
	c        *wire.Client[regCall]
	nss      []*NetMem // nss[h] is the namespace of handle h

	open      atomic.Int32 // namespaces not yet closed: the last Close hangs up
	mu        sync.Mutex   // orders renew bursts against Close's releases: no renew follows one
	stop      chan struct{}
	stopOnce  sync.Once
	fatalOnce sync.Once
}

// NetMem is the remote register backend: the membackend.Backend
// contract over one namespace of a session. Plain Writes are pipelined,
// their acks consumed in order by the session's reader, so a burst costs
// one round trip, not one per cell; Read, WriteAcked, ReadRange and Sync
// wait for their reply. All methods are safe for concurrent use. A
// broken connection is redialed, the handshake renews every lease — no
// epoch moves — and every unacknowledged operation is resent in order,
// so callers never observe the reconnect; a fenced renew means a
// successor took a lease meanwhile, and the session dies (OnFatal)
// instead.
type NetMem struct {
	s        *session
	h        byte // the handle: the namespace's position in the session
	name     string
	size     int
	stamp    int64         // what the hello asks a namespace it creates to hold in cell 0
	epoch    atomic.Uint64 // the lease's, from the session's acquire: a redial renews it
	reopened bool
	cell0    int64 // what the first hello found in cell 0
	closed   atomic.Bool
}

var _ membackend.Backend = (*NetMem)(nil)

// Open dials addr, attaches to (or creates) the namespace with size
// cells, and acquires the writer lease per the options: a session of
// one namespace.
func Open(addr string, size int, opts Options) (*NetMem, error) {
	opts.normalize()
	ms, err := OpenSession(addr, []string{opts.Namespace}, nil, size, opts)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// OpenSession dials addr once and attaches every namespace in names,
// each of size cells, acquiring each lease per the options: a hello and
// an acquire per namespace leave in one write. A namespace the hello
// creates holds stamps[i] in cell 0 before the server answers (nil: no
// stamps). opts.Namespace is not used. The backends share the connection
// and die together; the last one closed releases every lease and hangs
// up.
func OpenSession(addr string, names []string, stamps []int64, size int, opts Options) ([]*NetMem, error) {
	if size <= 0 {
		return nil, fmt.Errorf("netmem: need a positive size, got %d", size)
	}
	if len(names) == 0 || len(names) > maxHandles {
		return nil, fmt.Errorf("netmem: a session attaches 1..%d namespaces, got %d", maxHandles, len(names))
	}
	opts.normalize()
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("netmem: client id: %w", err)
	}
	s := &session{
		addr:     addr,
		opts:     opts,
		clientID: binary.LittleEndian.Uint64(idb[:]) | 1, // never 0
		nss:      make([]*NetMem, len(names)),
		stop:     make(chan struct{}),
	}
	for i, name := range names {
		s.nss[i] = &NetMem{s: s, h: byte(i), name: name, size: size}
		if stamps != nil {
			s.nss[i].stamp = stamps[i]
		}
	}
	s.open.Store(int32(len(names)))
	// The drop policy is the core's default, resend: registers are absolute
	// stores and reads, so re-applying a prefix the server already executed
	// is harmless.
	s.c = wire.NewClient(wire.Proto[regCall]{
		Name:           "netmem",
		Addr:           addr,
		DialTimeout:    opts.DialTimeout,
		RedialAttempts: opts.RedialAttempts,
		RedialBackoff:  opts.RedialBackoff,
		Closed:         ErrClosed,
		Encode:         s.encode,
		Reply:          s.reply,
		Handshake:      s.handshake,
		Down:           s.down,
		Up:             s.up,
		Die: func(err error) {
			s.fatalize(err)
			s.fatalOut(err) // an idle session, no op to tell, still dies
		},
	})
	if err := s.c.Connect(); err != nil {
		return nil, err
	}
	reopened, cell0 := make([]bool, len(s.nss)), make([]int64, len(s.nss))
	for i, m := range s.nss {
		reopened[i], cell0[i] = m.reopened, m.cell0
	}
	eventlog.Logger().Debug("netmem_client_connected",
		"addr", addr, "namespaces", names, "epochs", s.epochs(),
		"lease_ttl", s.opts.LeaseTTL, "reopened", reopened, "cell0", cell0)
	go s.renewLoop()
	return s.nss, nil
}

func (s *session) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// epochs lists the namespaces' lease epochs, in handle order.
func (s *session) epochs() []uint64 {
	out := make([]uint64, len(s.nss))
	for i, m := range s.nss {
		out[i] = m.Epoch()
	}
	return out
}

// handshake opens a connection in one flight: a hello per namespace, then
// a lease op per namespace — acquire on Open, a renew of the lease we
// hold on a redial — leave in ONE write. A refused hello is reported as
// itself, not as the "no namespace" the server then gives its lease op.
func (s *session) handshake(nc net.Conn, first bool) error {
	n := len(s.nss)
	flight := make([]*wire.Call[regCall], 2*n)
	for i, m := range s.nss {
		hello, lease := wire.NewCall[regCall](opHello), wire.NewCall[regCall](opRenew)
		if first {
			lease.Op = opAcquire
		}
		hello.Arg.ns, lease.Arg.ns = m, m
		flight[i], flight[n+i] = hello, lease
	}
	// The dial timeout bounds the flight; only a waiting acquire parks, for
	// the incumbent's remaining lease.
	defer nc.SetDeadline(time.Time{})
	nc.SetDeadline(time.Now().Add(s.opts.DialTimeout))
	s.c.Flight(nc, flight...)
	for i, hello := range flight[:n] {
		if err := hello.Wait(); err != nil {
			return err
		}
		if hello.Arg.addr != i {
			return fmt.Errorf("netmem: hello of namespace %q answered handle %d, want %d", s.nss[i].name, hello.Arg.addr, i)
		}
	}
	if first && !s.opts.FailFast {
		leaseBy := time.Time{}
		if s.opts.AcquireTimeout > 0 {
			leaseBy = time.Now().Add(s.opts.AcquireTimeout)
		}
		nc.SetDeadline(leaseBy)
	}
	ttl := s.opts.LeaseTTL
	for i, lease := range flight[n:] {
		if err := lease.Wait(); err != nil {
			if errors.Is(err, ErrFenced) { // the reply killed the session: tell OnFatal
				s.fatalOut(err)
			}
			return err
		}
		if first {
			m := s.nss[i]
			m.reopened, m.cell0 = flight[i].Arg.reopened, flight[i].Arg.cell[0]
			m.epoch.Store(uint64(lease.Arg.cell[0]))
			if granted := lease.Arg.ttl; granted > 0 {
				ttl = min(ttl, granted)
			}
		}
	}
	if ttl < s.opts.LeaseTTL {
		s.logf("netmem: server clamped lease ttl to %s", ttl)
		s.opts.LeaseTTL = ttl
	}
	return nil
}

func (s *session) down(cause error, inFlight int) {
	s.logf("netmem: connection lost (%v), redialing", cause)
	eventlog.Logger().Warn("netmem_client_connection_lost",
		"addr", s.addr, "err", cause, "outstanding", inFlight)
}

func (s *session) up(resent int) {
	cliReconnects.Inc()
	eventlog.Logger().Info("netmem_client_reconnected",
		"addr", s.addr, "epochs", s.epochs(), "resent_ops", resent)
	s.logf("netmem: reconnected to %s (epochs %v)", s.addr, s.epochs())
}

// decodeErr turns an opErr payload into a Go error, mapping the fencing
// and lease codes onto their sentinels.
func decodeErr(payload []byte) error {
	d := wire.Decoder{B: payload}
	code := d.U16()
	msg := d.Str()
	if d.Done() != nil {
		return fmt.Errorf("netmem: malformed error frame")
	}
	switch code {
	case codeFenced:
		return fmt.Errorf("%w (%s)", ErrFenced, msg)
	case codeLeaseHeld:
		return fmt.Errorf("%w (%s)", ErrLeaseHeld, msg)
	default:
		return &wireError{code, msg}
	}
}

// encode is the op table's request half: every op but hello names its
// namespace by handle, and mutating ops carry the namespace's epoch.
func (s *session) encode(b []byte, c *wire.Call[regCall]) []byte {
	at := len(b)
	m := c.Arg.ns
	if c.Op == opHello {
		b = wire.AppendI64(wire.AppendU64(wire.AppendStr(b, m.name), uint64(m.size)), m.stamp)
	} else {
		b = append(b, m.h)
	}
	switch c.Op {
	case opHello, opSync:
		// nothing more
	case opAcquire:
		b = wire.AppendU64(b, s.clientID)
		b = wire.AppendU64(b, uint64(s.opts.LeaseTTL/time.Millisecond))
		if s.opts.FailFast {
			b = append(b, 0)
		} else {
			b = append(b, 1) // wait
		}
	case opWriteAcked:
		b = wire.AppendU64(b, m.epoch.Load())
		b = wire.AppendU64(b, uint64(c.Arg.addr))
		for _, v := range c.Arg.vals {
			b = wire.AppendI64(b, v)
		}
	case opReadRange:
		b = wire.AppendU64(b, uint64(c.Arg.addr))
		b = wire.AppendU32(b, uint32(len(c.Arg.vals)))
	case opRenew:
		b = wire.AppendU64(b, s.clientID)
		b = wire.AppendU64(b, m.epoch.Load())
	case opRelease:
		b = wire.AppendU64(b, m.epoch.Load())
	default:
		panic(fmt.Sprintf("netmem: encode of unexpected op %d", c.Op))
	}
	obsClientQueued(c.Op, len(b)-at)
	return b
}

// reply is the op table's reply half. What kills the session, BEFORE the
// waiter wakes: a fenced reply, whatever it answers; a failed pipelined
// op, which has no caller to tell; and, past the handshake, a reply that
// does not decode.
func (s *session) reply(c *wire.Call[regCall], op byte, payload []byte) error {
	cliBytesIn.Add(wire.FrameBytes(len(payload)))
	d := wire.Decoder{B: payload}
	var err error
	switch {
	case op == opErr:
		if err = decodeErr(payload); errors.Is(err, ErrFenced) || !c.Awaited() {
			s.fatalize(err)
		}
		return err
	case op == opHelloOK && c.Op == opHello && len(payload) != 10:
		err = fmt.Errorf("netmem: hello answered in %d bytes, want 10: the server speaks an older protocol than v3", len(payload))
	case op == opHelloOK && c.Op == opHello:
		c.Arg.reopened = d.U8() != 0
		c.Arg.addr = int(d.U8())
		c.Arg.cell[0] = d.I64()
	case op == opAcquireOK && c.Op == opAcquire:
		c.Arg.cell[0] = d.I64()
		c.Arg.ttl = time.Duration(d.U64()) * time.Millisecond
	case op == opValues && c.Op == opReadRange && len(payload) == 8*len(c.Arg.vals):
		for i := range c.Arg.vals {
			c.Arg.vals[i] = d.I64()
		}
	case op != opAck || c.Op == opHello || c.Op == opAcquire || c.Op == opReadRange:
		err = fmt.Errorf("netmem: reply op %d (%d bytes) to op %d", op, len(payload), c.Op)
	}
	if err = cmp.Or(err, d.Done()); err != nil && c.Op != opHello && c.Op != opAcquire {
		s.fatalize(err)
	}
	return err
}

// call runs one awaited op on m and recycles it, returning its first
// cell: what a one-cell read read.
func (m *NetMem) call(c *wire.Call[regCall]) (int64, error) {
	if m.closed.Load() {
		calls.Put(c)
		return 0, ErrClosed
	}
	c.Arg.ns = m
	t0 := time.Now()
	err := m.s.c.Do(c)
	obsClientRPC(c.Op, time.Since(t0))
	v := c.Arg.cell[0]
	calls.Put(c)
	return v, err
}

// fatalize kills the session: every outstanding and future operation of
// every namespace fails with err, and the error-less methods route it
// through OnFatal. The crash dump is written BEFORE anyone can learn of
// the death: every path to OnFatal, whose default panics the process,
// runs through the core's death or a waiter's wake-up, and Kill runs the
// dump first, under the core's lock. On a fence the error names the
// namespace and carries both epochs; the epoch attr lists the leases the
// session wrote under, in handle order.
func (s *session) fatalize(err error) {
	fenced := errors.Is(err, ErrFenced)
	if !s.c.Kill(err, func() {
		cliFatal.Inc()
		if fenced {
			cliFenced.Inc()
		}
		eventlog.CrashDump("netmem_client_fatal",
			"addr", s.addr, "epoch", s.epochs(), "fenced", fenced, "err", err)
	}) {
		return
	}
	s.logf("netmem: fatal: %v", err)
}

// fatalOut reports err through OnFatal for the error-less interface
// methods, once a session; ErrClosed is swallowed (post-Close access is
// undefined by contract, not a process-killing event).
func (s *session) fatalOut(err error) {
	if err == nil || errors.Is(err, ErrClosed) {
		return
	}
	s.fatalOnce.Do(func() { s.opts.OnFatal(err) })
}

// halt stops the renew loop.
func (s *session) halt() { s.stopOnce.Do(func() { close(s.stop) }) }

// renewLoop keeps every writer lease alive: every TTL/3, a renew per
// namespace in one write, whose last is awaited — the connection answers
// in order, so its ack is every renew's. A renew that fails fatally
// (fenced, redial exhausted) routes through OnFatal, so even a session
// that has gone quiet — no register traffic — learns of its death within
// a third of the lease.
func (s *session) renewLoop() {
	t := time.NewTicker(s.opts.LeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		last := calls.Get(opRenew)
		last.Arg.ns = s.nss[len(s.nss)-1]
		err := s.renewBurst(last)
		if err == nil {
			err = last.Wait()
		}
		calls.Put(last)
		if err != nil {
			s.fatalOut(err)
			return
		}
	}
}

// renewBurst queues a renew for every namespace, last the awaited one,
// unless Close has begun: its releases are the last frames sent.
func (s *session) renewBurst(last *wire.Call[regCall]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stop:
		return ErrClosed
	default:
	}
	for _, m := range s.nss[:len(s.nss)-1] {
		if err := s.c.Post(&wire.Call[regCall]{Op: opRenew, Arg: regCall{ns: m}}); err != nil {
			return err
		}
	}
	return s.c.Post(last)
}

// Read implements shmem.Mem with one awaited one-cell range read.
func (m *NetMem) Read(addr int) int64 {
	c := calls.Get(opReadRange)
	c.Arg.addr, c.Arg.vals = addr, c.Arg.cell[:]
	v, err := m.call(c)
	if err != nil {
		m.s.fatalOut(err)
		return 0
	}
	return v
}

// Write implements shmem.Mem as a pipelined one-cell acked write: it
// returns once the request is queued on the connection. The ack is
// consumed (and checked) in the background; ordering against every later
// operation on this session is preserved by the connection. Use
// WriteAcked when the write must be durable on the server before
// proceeding.
func (m *NetMem) Write(addr int, v int64) {
	if m.closed.Load() {
		return
	}
	c := &wire.Call[regCall]{Op: opWriteAcked, Arg: regCall{ns: m, addr: addr, cell: [1]int64{v}}}
	c.Arg.vals = c.Arg.cell[:]
	if err := m.s.c.Post(c); err != nil {
		m.s.fatalOut(err)
	}
}

// WriteAcked implements membackend.Backend: one awaited round trip
// stores the whole batch, and it returns after the server has applied
// it — the record-then-do ordering the dispatcher journal needs across
// process death, and the group commit that makes JournalBatch>1 pay (k
// claims for one network RTT instead of k). The server applies the batch
// atomically with respect to fencing: a stale epoch rejects every cell,
// never some of them. Batches beyond the protocol's per-op bound are
// chunked (each chunk then carries the atomicity guarantee individually
// — chunking at maxRange cells is far beyond any journal flush or
// descriptor-log tick).
func (m *NetMem) WriteAcked(addr int, vals []int64) error {
	return m.chunked(opWriteAcked, addr, vals)
}

// ReadRange implements membackend.Backend, chunking to the protocol's
// per-op bound.
func (m *NetMem) ReadRange(addr int, dst []int64) error {
	return m.chunked(opReadRange, addr, dst)
}

// chunked runs op over vals in runs of at most maxRange cells.
func (m *NetMem) chunked(op byte, addr int, vals []int64) error {
	for len(vals) > 0 {
		n := min(len(vals), maxRange)
		c := calls.Get(op)
		c.Arg.addr, c.Arg.vals = addr, vals[:n]
		if _, err := m.call(c); err != nil {
			return err
		}
		addr += n
		vals = vals[n:]
	}
	return nil
}

// Size implements shmem.Mem.
func (m *NetMem) Size() int { return m.size }

// Reopened implements membackend.Backend: whether the namespace held
// register state before this client attached (a durable file reopened
// by the server, or an earlier client session on the same namespace).
func (m *NetMem) Reopened() bool { return m.reopened }

// Epoch returns the current writer-lease epoch (test and debug hook).
func (m *NetMem) Epoch() uint64 { return m.epoch.Load() }

// Sync implements membackend.Backend: it drains the pipeline (the
// server applies requests in order) and has the server flush the
// namespace backend to stable storage.
func (m *NetMem) Sync() error {
	_, err := m.call(calls.Get(opSync))
	return err
}

// Close closes the namespace: from the moment it begins, its operations
// fail with ErrClosed (without OnFatal). Its lease is held on — the
// session's namespaces are one incarnation — until the session's last
// namespace closes. That Close releases every lease, flushes pipelined
// writes and hangs up, after draining the acks up to the last release's
// (at most 2s): unread acks would reset the connection, and a reset can
// make the server drop frames it has not read — the releases and the
// final writes. Operations the connection never acknowledged, down at
// Close or lost under it, are discarded and counted in the error.
// Nothing is redialed behind it, and the releases are the last frames
// sent, so no renew can reach the server behind them and be answered
// "fenced", the death of a holder nobody contended with. Close is
// idempotent.
func (m *NetMem) Close() error {
	if m.closed.Swap(true) || m.s.open.Add(-1) > 0 {
		return nil
	}
	s := m.s
	release := func(m *NetMem) *wire.Call[regCall] {
		return &wire.Call[regCall]{Op: opRelease, Arg: regCall{ns: m}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.halt()
	last := len(s.nss) - 1
	if s.c.Conn() != nil { // else nothing goes out, and nothing is owed
		for _, o := range s.nss[:last] {
			s.c.Post(release(o))
		}
	}
	return s.c.Close(release(s.nss[last]), 2*time.Second)
}

func init() {
	// A suffix lands on the namespace — never the port, and the default
	// one when the spec names none — and every instance attaches to one
	// session.
	membackend.Register("net", func(arg string, insts []membackend.Instance, size int) ([]membackend.Backend, []int64, error) {
		addr, opts, err := ParseSpec(arg)
		if err != nil {
			return nil, nil, err
		}
		opts.normalize()
		names, stamps := make([]string, len(insts)), make([]int64, len(insts))
		for i, in := range insts {
			names[i], stamps[i] = opts.Namespace+in.Suffix, in.Stamp
		}
		ms, err := OpenSession(addr, names, stamps, size, opts)
		if err != nil {
			return nil, nil, err
		}
		bs, cell0 := make([]membackend.Backend, len(ms)), make([]int64, len(ms))
		for i, m := range ms {
			bs[i], cell0[i] = m, m.cell0
		}
		return bs, cell0, nil
	})
}

// ParseSpec parses the argument of a "net:" backend spec:
//
//	HOST:PORT[/NAMESPACE][?option=value&...]
//
// Options: ttl (lease duration, e.g. 750ms), acquire (wait | fail),
// acquiretimeout, dialtimeout, retries (redial attempts). Unknown
// options are rejected.
func ParseSpec(arg string) (addr string, opts Options, err error) {
	rest := arg
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		q := rest[i+1:]
		rest = rest[:i]
		vals, perr := url.ParseQuery(q)
		if perr != nil {
			return "", opts, fmt.Errorf("netmem: bad options in spec %q: %v", arg, perr)
		}
		for k, vs := range vals {
			v := vs[len(vs)-1]
			switch k {
			case "ttl":
				if opts.LeaseTTL, err = time.ParseDuration(v); err != nil || opts.LeaseTTL <= 0 {
					return "", opts, fmt.Errorf("netmem: bad ttl %q in spec %q (want a positive duration like 2s)", v, arg)
				}
			case "acquire":
				switch v {
				case "wait":
					opts.FailFast = false
				case "fail":
					opts.FailFast = true
				default:
					return "", opts, fmt.Errorf("netmem: bad acquire mode %q in spec %q (want wait or fail)", v, arg)
				}
			case "acquiretimeout":
				if opts.AcquireTimeout, err = time.ParseDuration(v); err != nil || opts.AcquireTimeout <= 0 {
					return "", opts, fmt.Errorf("netmem: bad acquiretimeout %q in spec %q", v, arg)
				}
			case "dialtimeout":
				if opts.DialTimeout, err = time.ParseDuration(v); err != nil || opts.DialTimeout <= 0 {
					return "", opts, fmt.Errorf("netmem: bad dialtimeout %q in spec %q", v, arg)
				}
			case "retries":
				if opts.RedialAttempts, err = strconv.Atoi(v); err != nil || opts.RedialAttempts <= 0 {
					return "", opts, fmt.Errorf("netmem: bad retries %q in spec %q (want a positive integer)", v, arg)
				}
			default:
				return "", opts, fmt.Errorf("netmem: unknown option %q in spec %q (have ttl, acquire, acquiretimeout, dialtimeout, retries)", k, arg)
			}
		}
	}
	// The namespace is everything after the last '/', so IPv6 hosts
	// ("[::1]:7878") and ports stay intact.
	addr = rest
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		addr, opts.Namespace = rest[:i], rest[i+1:]
		if opts.Namespace == "" {
			return "", opts, fmt.Errorf("netmem: empty namespace in spec %q; drop the '/' for the default", arg)
		}
	}
	if addr == "" || !strings.Contains(addr, ":") {
		return "", opts, fmt.Errorf("netmem: spec %q needs HOST:PORT (e.g. %q)", arg, "net:127.0.0.1:7878/jobs")
	}
	return addr, opts, nil
}
