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
	// Namespace selects the register set on the server (default
	// "default").
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
	addr int
	val  int64         // a pipelined write's value; a read's result, hello's reopened flag, acquire's epoch
	vals []int64       // an acked write's values; a range read's destination
	ttl  time.Duration // the lease acquire granted
}

var calls wire.Pool[regCall]

// NetMem is the remote register backend: the membackend.Backend
// contract over one connection to a register server, through the client
// core (wire.Client). Plain Writes are pipelined, their acks consumed in
// order by the core's reader, so a burst costs one round trip, not one
// per cell; Read, WriteAcked, ReadRange and Sync wait for their reply.
// All methods are safe for concurrent use. A broken connection is
// redialed, the handshake renews the lease — the epoch does not move —
// and every unacknowledged operation is resent in order, so callers
// never observe the reconnect; a fenced renew means a successor took the
// lease meanwhile, and the client dies (OnFatal) instead.
type NetMem struct {
	addr     string
	size     int
	opts     Options
	clientID uint64
	c        *wire.Client[regCall]

	epoch     atomic.Uint64 // the lease's, from Open's acquire: a redial renews it
	reopened  bool
	renewStop chan struct{}
	renewOnce sync.Once
}

var _ membackend.Backend = (*NetMem)(nil)

// Open dials addr, attaches to (or creates) the namespace with size
// cells, and acquires the writer lease per the options.
func Open(addr string, size int, opts Options) (*NetMem, error) {
	if size <= 0 {
		return nil, fmt.Errorf("netmem: need a positive size, got %d", size)
	}
	opts.normalize()
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("netmem: client id: %w", err)
	}
	m := &NetMem{
		addr:      addr,
		size:      size,
		opts:      opts,
		clientID:  binary.LittleEndian.Uint64(idb[:]) | 1, // never 0
		renewStop: make(chan struct{}),
	}
	// The drop policy is the core's default, resend: registers are absolute
	// stores and reads, so re-applying a prefix the server already executed
	// is harmless.
	m.c = wire.NewClient(wire.Proto[regCall]{
		Name:           "netmem",
		Addr:           addr,
		DialTimeout:    opts.DialTimeout,
		RedialAttempts: opts.RedialAttempts,
		RedialBackoff:  opts.RedialBackoff,
		Closed:         ErrClosed,
		Encode:         m.encode,
		Reply:          m.reply,
		Handshake:      m.handshake,
		Down:           m.down,
		Up:             m.up,
		Die: func(err error) {
			m.fatalize(err)
			m.fatalOut(err) // an idle client, no op to tell, still dies
		},
	})
	if err := m.c.Connect(); err != nil {
		return nil, err
	}
	eventlog.Logger().Debug("netmem_client_connected",
		"addr", addr, "namespace", m.opts.Namespace, "epoch", m.Epoch(),
		"lease_ttl", m.opts.LeaseTTL, "reopened", m.Reopened())
	go m.renewLoop()
	return m, nil
}

func (m *NetMem) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// handshake opens a connection in one flight: hello and the lease op —
// acquire on Open, a renew of the lease we hold on a redial — leave in
// ONE write. A refused hello is reported as itself, not as the "no
// namespace" the server then gives the lease op.
func (m *NetMem) handshake(nc net.Conn, first bool) error {
	hello, lease := wire.NewCall[regCall](opHello), wire.NewCall[regCall](opRenew)
	if first {
		lease.Op = opAcquire
	}
	// The dial timeout bounds the flight; only a waiting acquire parks, for
	// the incumbent's remaining lease.
	defer nc.SetDeadline(time.Time{})
	nc.SetDeadline(time.Now().Add(m.opts.DialTimeout))
	m.c.Flight(nc, hello, lease)
	if err := hello.Wait(); err != nil {
		return err
	}
	if first && !m.opts.FailFast {
		leaseBy := time.Time{}
		if m.opts.AcquireTimeout > 0 {
			leaseBy = time.Now().Add(m.opts.AcquireTimeout)
		}
		nc.SetDeadline(leaseBy)
	}
	if err := lease.Wait(); err != nil {
		if errors.Is(err, ErrFenced) { // the reply killed the client: tell OnFatal
			m.fatalOut(err)
		}
		return err
	}
	if first {
		m.reopened = hello.Arg.val != 0
		m.epoch.Store(uint64(lease.Arg.val))
		if granted := lease.Arg.ttl; granted > 0 && granted < m.opts.LeaseTTL {
			m.logf("netmem: server clamped lease ttl to %s", granted)
			m.opts.LeaseTTL = granted
		}
	}
	return nil
}

func (m *NetMem) down(cause error, inFlight int) {
	m.logf("netmem: connection lost (%v), redialing", cause)
	eventlog.Logger().Warn("netmem_client_connection_lost",
		"addr", m.addr, "err", cause, "outstanding", inFlight)
}

func (m *NetMem) up(resent int) {
	cliReconnects.Inc()
	eventlog.Logger().Info("netmem_client_reconnected",
		"addr", m.addr, "epoch", m.Epoch(), "resent_ops", resent)
	m.logf("netmem: reconnected to %s (epoch %d)", m.addr, m.Epoch())
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

// encode is the op table's request half; mutating ops carry the epoch.
func (m *NetMem) encode(b []byte, c *wire.Call[regCall]) []byte {
	at := len(b)
	switch c.Op {
	case opHello:
		b = wire.AppendU64(wire.AppendStr(b, m.opts.Namespace), uint64(m.size))
	case opAcquire:
		b = wire.AppendU64(b, m.clientID)
		b = wire.AppendU64(b, uint64(m.opts.LeaseTTL/time.Millisecond))
		if m.opts.FailFast {
			b = append(b, 0)
		} else {
			b = append(b, 1) // wait
		}
	case opRead:
		b = wire.AppendU64(b, uint64(c.Arg.addr))
	case opWrite:
		b = wire.AppendU64(b, m.epoch.Load())
		b = wire.AppendU64(b, uint64(c.Arg.addr))
		b = wire.AppendI64(b, c.Arg.val)
	case opWriteAcked:
		b = wire.AppendU64(b, m.epoch.Load())
		b = wire.AppendU64(b, uint64(c.Arg.addr))
		for _, v := range c.Arg.vals {
			b = wire.AppendI64(b, v)
		}
	case opReadRange:
		b = wire.AppendU64(b, uint64(c.Arg.addr))
		b = wire.AppendU32(b, uint32(len(c.Arg.vals)))
	case opRenew, opRelease:
		b = wire.AppendU64(b, m.epoch.Load())
	case opSync:
		// empty
	default:
		panic(fmt.Sprintf("netmem: encode of unexpected op %d", c.Op))
	}
	obsClientQueued(c.Op, len(b)-at)
	return b
}

// reply is the op table's reply half. What kills the client, BEFORE the
// waiter wakes: a fenced reply, whatever it answers; a failed pipelined
// write, which has no caller to tell; and, past the handshake, a reply
// that does not decode.
func (m *NetMem) reply(c *wire.Call[regCall], op byte, payload []byte) error {
	cliBytesIn.Add(wire.FrameBytes(len(payload)))
	d := wire.Decoder{B: payload}
	var err error
	switch {
	case op == opErr:
		if err = decodeErr(payload); errors.Is(err, ErrFenced) || !c.Awaited() {
			m.fatalize(err)
		}
		return err
	case op == opHelloOK && c.Op == opHello:
		c.Arg.val = int64(d.U8())
	case op == opAcquireOK && c.Op == opAcquire:
		c.Arg.val = d.I64()
		c.Arg.ttl = time.Duration(d.U64()) * time.Millisecond
	case op == opValue && c.Op == opRead:
		c.Arg.val = d.I64()
	case op == opValues && c.Op == opReadRange && len(payload) == 8*len(c.Arg.vals):
		for i := range c.Arg.vals {
			c.Arg.vals[i] = d.I64()
		}
	case op != opAck || c.Op == opHello || c.Op == opAcquire || c.Op == opRead || c.Op == opReadRange:
		err = fmt.Errorf("netmem: reply op %d (%d bytes) to op %d", op, len(payload), c.Op)
	}
	if err = cmp.Or(err, d.Done()); err != nil && c.Op != opHello && c.Op != opAcquire {
		m.fatalize(err)
	}
	return err
}

// call runs one awaited op and recycles it, returning the value it read.
func (m *NetMem) call(c *wire.Call[regCall]) (int64, error) {
	t0 := time.Now()
	err := m.c.Do(c)
	obsClientRPC(c.Op, time.Since(t0))
	v := c.Arg.val
	calls.Put(c)
	return v, err
}

// fatalize kills the client: every outstanding and future operation
// fails with err, and the error-less methods route it through OnFatal.
// The crash dump is written BEFORE anyone can learn of the death: every
// path to OnFatal, whose default panics the process, runs through the
// core's death or a waiter's wake-up, and Kill runs the dump first, under
// the core's lock. On a fence the error carries both epochs, and the
// epoch attr names the lease this client wrote under.
func (m *NetMem) fatalize(err error) {
	fenced := errors.Is(err, ErrFenced)
	if !m.c.Kill(err, func() {
		cliFatal.Inc()
		if fenced {
			cliFenced.Inc()
		}
		eventlog.CrashDump("netmem_client_fatal",
			"addr", m.addr, "epoch", m.epoch.Load(), "fenced", fenced, "err", err)
	}) {
		return
	}
	m.logf("netmem: fatal: %v", err)
}

// fatalOut reports err through OnFatal for the error-less interface
// methods; ErrClosed is swallowed (post-Close access is undefined by
// contract, not a process-killing event).
func (m *NetMem) fatalOut(err error) {
	if err == nil || errors.Is(err, ErrClosed) {
		return
	}
	m.opts.OnFatal(err)
}

// renewLoop keeps the writer lease alive. A renew that fails fatally
// (fenced, redial exhausted) routes through OnFatal, so even a client
// that has gone quiet — no register traffic — learns of its death
// within a third of the lease.
func (m *NetMem) renewLoop() {
	t := time.NewTicker(m.opts.LeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-m.renewStop:
			return
		case <-t.C:
			if _, err := m.call(calls.Get(opRenew)); err != nil {
				m.fatalOut(err)
				return
			}
		}
	}
}

// Read implements shmem.Mem with one awaited round trip.
func (m *NetMem) Read(addr int) int64 {
	c := calls.Get(opRead)
	c.Arg.addr = addr
	v, err := m.call(c)
	if err != nil {
		m.fatalOut(err)
		return 0
	}
	return v
}

// Write implements shmem.Mem as a pipelined write: it returns once the
// request is queued on the connection. The ack is consumed (and
// checked) in the background; ordering against every later operation on
// this client is preserved by the connection. Use WriteAcked when the
// write must be durable on the server before proceeding.
func (m *NetMem) Write(addr int, v int64) {
	if err := m.c.Post(&wire.Call[regCall]{Op: opWrite, Arg: regCall{addr: addr, val: v}}); err != nil {
		m.fatalOut(err)
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

// Close releases the lease, flushes pipelined writes and hangs up, after
// draining the acks up to the release's (at most 2s): unread acks would
// reset the connection, and a reset can make the server drop frames it
// has not read — the release and the final writes. Operations the
// connection never acknowledged, down at Close or lost under it, are
// discarded and counted in the error. From the moment Close begins,
// operations fail with ErrClosed (without OnFatal) and nothing is
// redialed: the release is the last frame sent, so no renew can reach the
// server behind it and be answered "fenced", the death of a holder nobody
// contended with. Close is idempotent.
func (m *NetMem) Close() error {
	m.renewOnce.Do(func() { close(m.renewStop) })
	return m.c.Close(&wire.Call[regCall]{Op: opRelease}, 2*time.Second)
}

func init() {
	membackend.Register("net", func(arg string, size int) (membackend.Backend, error) {
		addr, opts, err := ParseSpec(arg)
		if err != nil {
			return nil, err
		}
		return Open(addr, size, opts)
	})
	// Teach membackend.WithSuffix (and hence ShardSpec) this kind's
	// grammar: the suffix lands on the namespace — never the port —
	// before any "?option" tail, defaulting the namespace first when the
	// spec names none.
	membackend.RegisterSuffixer("net", func(arg, suffix string) string {
		base, opts := arg, ""
		if i := strings.IndexByte(arg, '?'); i >= 0 {
			base, opts = arg[:i], arg[i:]
		}
		if strings.LastIndexByte(base, '/') < 0 {
			base += "/default"
		}
		return base + suffix + opts
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
