package netmem

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
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

// pendingOp is one request in flight: sent (or queued for resend), not
// yet acknowledged. The client keeps them FIFO; the server answers in
// order, so the front of the queue always matches the next reply.
type pendingOp struct {
	op    byte
	seq   uint32
	addr  int
	val   int64   // pipelined write value, read result
	count int     // range count
	vals  []int64 // range destination, or the acked write's values
	// wake is non-nil for awaited ops: whoever unlinks the op from the
	// outstanding queue under mu — the reader with the reply, or
	// fatalize/Close with the error — fills err/val and sends the one
	// wake-up of this use. Fire-and-forget writes leave it nil: their ack
	// is still consumed (and checked for errors) in order.
	wake chan struct{} // 1-buffered
	err  error
}

// opPool recycles awaited ops, wake-up channel included, so a round trip
// allocates nothing. An op goes back only from its own waiter, after the
// waiter has received the wake-up and read the result: by then the op is
// off the queue and nothing else still points at it, so a reused op can
// never hear from an earlier use.
var opPool = sync.Pool{New: func() any { return &pendingOp{wake: make(chan struct{}, 1)} }}

func getOp(op byte, addr int) *pendingOp {
	p := opPool.Get().(*pendingOp)
	p.op, p.addr = op, addr
	return p
}

func putOp(p *pendingOp) {
	*p = pendingOp{wake: p.wake}
	opPool.Put(p)
}

// finish hands the op's outcome to its waiter, if it has one. The waiter
// may recycle the op at once: the caller must not touch it afterwards.
func (p *pendingOp) finish(err error) {
	if p.wake != nil {
		p.err = err
		p.wake <- struct{}{}
	}
}

// opQueue is the FIFO of requests in flight, a ring over a fixed array:
// send bounds the depth at maxOutstanding (Close's release may ride one
// past it), so a push never allocates and a popped op is unpinned at
// once.
type opQueue struct {
	buf     [maxOutstanding + 1]*pendingOp
	head, n int
}

// at returns the i-th oldest op.
func (q *opQueue) at(i int) *pendingOp { return q.buf[(q.head+i)%len(q.buf)] }

func (q *opQueue) push(p *pendingOp) {
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *opQueue) pop() *pendingOp {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head, q.n = (q.head+1)%len(q.buf), q.n-1
	return p
}

// failAll empties the queue, waking every waiter with err.
func (q *opQueue) failAll(err error) {
	for q.n > 0 {
		q.pop().finish(err)
	}
}

// NetMem is the remote register backend: the membackend.Backend
// contract over one TCP connection to a register server. Plain Writes
// are pipelined — sent without waiting for the acknowledgement, which
// the background reader consumes in order — so a burst of register
// traffic costs one round trip, not one per cell; Read, WriteAcked,
// ReadRange and Sync wait for their reply. All methods are safe for
// concurrent use.
//
// A broken connection is redialed with backoff; the handshake
// revalidates the existing lease with a renew — the epoch does not move
// — and every unacknowledged operation is resent in order, so callers
// never observe the reconnect. A fenced renew means another writer was
// granted the lease while we were away: the registers are no longer
// ours to resume, and the client declares itself dead (OnFatal) instead
// of continuing.
type NetMem struct {
	addr     string
	size     int
	opts     Options
	clientID uint64

	mu          sync.Mutex
	cond        *sync.Cond // conn became usable, or outstanding drained
	conn        net.Conn
	wbuf        []byte // frames built in place and not yet written; one conn.Write a flush
	gen         uint64 // connection generation, so stale readers stand down
	seq         uint32
	epoch       uint64
	reopened    bool
	outstanding opQueue
	fatal       error
	closed      bool // Close has begun: no op is admitted, no redial started
	redialing   bool
	renewStop   chan struct{}
	renewOnce   sync.Once
}

// maxOutstanding bounds the pipelined requests in flight. The bound is
// what makes the pipeline deadlock-free: at 2048 small frames, neither
// direction's requests-plus-replies can fill both peers' socket
// buffers, so the server is always able to ingest what a sender
// flushes while the reader goroutine briefly holds the client lock.
const maxOutstanding = 2048

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
		addr:     addr,
		size:     size,
		opts:     opts,
		clientID: binary.LittleEndian.Uint64(idb[:]) | 1, // never 0
	}
	m.cond = sync.NewCond(&m.mu)
	m.renewStop = make(chan struct{})
	if err := m.connect(true); err != nil {
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

// connect dials, handshakes and installs the connection. With first
// set it is Open's synchronous path: hello + lease acquire (which may
// wait out an incumbent). Otherwise it is one reconnect attempt: hello
// + a renew of the lease we already hold — the epoch does not move, so
// resent operations stay valid, and a fenced renew proves a successor
// took over while we were away (fatal). The dial and handshake run
// without the lock (they block); installation and the resend of
// outstanding ops happen under it.
func (m *NetMem) connect(first bool) error {
	conn, err := net.DialTimeout("tcp", m.addr, m.opts.DialTimeout)
	if err != nil {
		return err
	}
	fr := wire.NewFrameReader(conn, connBuf)
	epoch, reopened, err := m.handshake(conn, fr, first)
	if err != nil {
		conn.Close()
		if !first && errors.Is(err, ErrFenced) {
			m.fatalize(err)
		}
		return err
	}

	m.mu.Lock()
	if m.closed || m.fatal != nil {
		m.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	m.conn, m.wbuf = conn, m.wbuf[:0] // what the old connection left unwritten is resent below
	m.gen++
	m.epoch = epoch
	if first {
		m.reopened = reopened
	}
	// Resend everything the old connection never acknowledged, in
	// order, re-stamped with the fresh epoch. Registers are absolute
	// stores and reads, so re-applying a prefix the server already
	// executed is harmless. A failure here un-installs the connection
	// and reports to the caller (Open fails; the redial loop retries).
	gen := m.gen
	resent := m.outstanding.n
	for i := 0; i < resent; i++ {
		op := m.outstanding.at(i)
		op.seq = m.nextSeqLocked()
		m.appendLocked(op)
	}
	if err := m.flushLocked(); err != nil {
		m.conn = nil
		m.mu.Unlock()
		conn.Close()
		return err
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if !first {
		cliReconnects.Inc()
		eventlog.Logger().Info("netmem_client_reconnected",
			"addr", m.addr, "epoch", epoch, "resent_ops", resent)
	}
	go m.readLoop(gen, fr)
	return nil
}

// handshake opens a fresh connection before its reader goroutine exists,
// in one flight: hello and the lease op behind it — acquire on Open,
// honoring FailFast and AcquireTimeout, a renew of the lease we hold on a
// redial — leave in ONE write, and the two replies are read in order (the
// server applies a connection's requests strictly in order). A refused
// hello is reported as itself: the "no namespace" the server then gives
// the lease op is never read.
func (m *NetMem) handshake(conn net.Conn, fr *wire.FrameReader, first bool) (epoch uint64, reopened bool, err error) {
	b := wire.AppendU64(wire.AppendStr(wire.AppendHeader(nil, opHello, 0, 0), m.opts.Namespace), uint64(m.size))
	wire.EndFrame(b, 0)
	at, leaseOK := len(b), opAck
	if first {
		leaseOK = opAcquireOK
		b = wire.AppendU64(wire.AppendHeader(b, opAcquire, 0, 0), m.clientID)
		b = wire.AppendU64(b, uint64(m.opts.LeaseTTL/time.Millisecond))
		if m.opts.FailFast {
			b = append(b, 0)
		} else {
			b = append(b, 1) // wait
		}
	} else {
		m.mu.Lock()
		epoch = m.epoch
		m.mu.Unlock()
		b = wire.AppendU64(wire.AppendHeader(b, opRenew, 0, 0), epoch)
	}
	wire.EndFrame(b, at)

	// next reads one reply, which must be want and dies at the next call;
	// an opErr reply comes back as the error it carries.
	next := func(want byte) ([]byte, error) {
		got, _, reply, err := fr.Next()
		switch {
		case err != nil:
			return nil, err
		case got == opErr:
			return nil, decodeErr(reply)
		case got != want:
			return nil, fmt.Errorf("netmem: unexpected handshake reply op %d, want %d", got, want)
		}
		return reply, nil
	}
	// The server answers hello, a renew and a fail-fast acquire at once, so
	// the dial timeout bounds the flight; only a waiting acquire parks, for
	// as long as the incumbent's remaining lease.
	defer conn.SetDeadline(time.Time{})
	conn.SetDeadline(time.Now().Add(m.opts.DialTimeout))
	if _, err = conn.Write(b); err != nil {
		return 0, false, err
	}
	reply, err := next(opHelloOK)
	if err != nil {
		return 0, false, err
	}
	d := wire.Decoder{B: reply}
	reopened = d.U8() != 0
	if err = d.Done(); err != nil {
		return 0, false, err
	}
	if first && !m.opts.FailFast {
		leaseBy := time.Time{}
		if m.opts.AcquireTimeout > 0 {
			leaseBy = time.Now().Add(m.opts.AcquireTimeout)
		}
		conn.SetDeadline(leaseBy)
	}
	if reply, err = next(leaseOK); err != nil || !first {
		return epoch, reopened, err
	}
	d = wire.Decoder{B: reply}
	epoch = d.U64()
	granted := time.Duration(d.U64()) * time.Millisecond
	if err = d.Done(); err != nil {
		return 0, false, err
	}
	if granted > 0 && granted < m.opts.LeaseTTL {
		m.logf("netmem: server clamped lease ttl to %s", granted)
		m.opts.LeaseTTL = granted
	}
	return epoch, reopened, nil
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

func (m *NetMem) nextSeqLocked() uint32 {
	m.seq++
	return m.seq
}

// appendLocked builds op's frame in place at the end of the write
// buffer, stamping mutating ops with the current epoch, and returns the
// payload's length.
func (m *NetMem) appendLocked(op *pendingOp) int {
	at := len(m.wbuf)
	b := wire.AppendHeader(m.wbuf, op.op, op.seq, 0)
	switch op.op {
	case opRead:
		b = wire.AppendU64(b, uint64(op.addr))
	case opWrite:
		b = wire.AppendU64(b, m.epoch)
		b = wire.AppendU64(b, uint64(op.addr))
		b = wire.AppendI64(b, op.val)
	case opWriteAcked:
		b = wire.AppendU64(b, m.epoch)
		b = wire.AppendU64(b, uint64(op.addr))
		for _, v := range op.vals {
			b = wire.AppendI64(b, v)
		}
	case opReadRange:
		b = wire.AppendU64(b, uint64(op.addr))
		b = wire.AppendU32(b, uint32(op.count))
	case opRenew, opRelease:
		b = wire.AppendU64(b, m.epoch)
	case opSync:
		// empty
	default:
		panic(fmt.Sprintf("netmem: encode of unexpected op %d", op.op))
	}
	wire.EndFrame(b, at)
	m.wbuf = b
	return len(b) - at - wire.HeaderSize
}

// flushLocked writes everything buffered in one conn.Write. A buffer a
// burst grew past bufKeep goes to the collector, so a connection at rest
// holds what its steady traffic needs, not its worst moment.
func (m *NetMem) flushLocked() error {
	if len(m.wbuf) == 0 {
		return nil
	}
	_, err := m.conn.Write(m.wbuf)
	m.wbuf = m.wbuf[:0]
	if cap(m.wbuf) > bufKeep {
		m.wbuf = nil
	}
	return err
}

// flushThreshold is the buffered-bytes point past which a pipelined
// write flushes eagerly instead of waiting for the next awaited op, and
// bufKeep the largest write buffer kept across a flush. connBuf sizes a
// connection's read chunk at both ends and the server's reply writer, by
// the traffic: a request is at most 1 049 bytes in steady state (a journal
// flush's 128-word run + 25) with two awaited at a time, a reply is a 9–17
// byte ack, and the one large frame — a recovery scan's opValues, 32 KiB
// + 9 — gets a chunk of its own size from the reader and is written
// through by the server's bufio.Writer.
const (
	flushThreshold = 32 << 10
	bufKeep        = 2 * flushThreshold
	connBuf        = 4 << 10
)

// send queues op on the connection. Awaited ops (wake != nil) flush and
// block until the reader delivers their reply; pipelined writes return
// after buffering. When the connection is down, send waits for the
// redialer rather than failing: reconnection is the client's job, not
// the caller's.
func (m *NetMem) send(op *pendingOp) error {
	var t0 time.Time
	if op.wake != nil {
		t0 = time.Now()
	}
	m.mu.Lock()
	for {
		if m.fatal != nil {
			err := m.fatal
			m.mu.Unlock()
			return err
		}
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		if m.conn != nil {
			if m.outstanding.n < maxOutstanding {
				break
			}
			// Queue full: push the buffered tail out so its acks can
			// drain the queue while we wait.
			if err := m.flushLocked(); err != nil {
				m.breakConnLocked(err)
				continue
			}
		}
		m.cond.Wait()
	}
	op.seq = m.nextSeqLocked()
	m.outstanding.push(op)
	obsClientQueued(op.op, m.appendLocked(op))
	if op.wake != nil || len(m.wbuf) > flushThreshold {
		if err := m.flushLocked(); err != nil {
			m.breakConnLocked(err)
		}
	}
	m.mu.Unlock()
	if op.wake == nil {
		return nil
	}
	<-op.wake
	obsClientRPC(op.op, time.Since(t0))
	return op.err
}

// call runs one awaited op that yields nothing but its error.
func (m *NetMem) call(op *pendingOp) error {
	err := m.send(op)
	putOp(op)
	return err
}

// readLoop consumes replies for one connection generation and matches
// them FIFO against the outstanding queue.
func (m *NetMem) readLoop(gen uint64, fr *wire.FrameReader) {
	for {
		op, seq, payload, err := fr.Next()
		if err != nil {
			m.breakConn(gen, err)
			return
		}
		cliBytesIn.Add(wire.FrameBytes(len(payload)))
		stale, fatal := m.deliver(gen, op, seq, payload)
		if fatal != nil {
			m.fatalize(fatal)
			return
		}
		if stale {
			return
		}
	}
}

// deliver matches one reply to the front of the outstanding queue. stale
// reports that the reply's connection is no longer the installed one —
// superseded, broken or closed — and its reader should stand down (Close
// keeps its connection until the drain is over); fatal is
// non-nil only for conditions that kill the client (fencing, protocol
// corruption) — per-op errors on awaited ops go to the waiter.
func (m *NetMem) deliver(gen uint64, op byte, seq uint32, payload []byte) (stale bool, fatal error) {
	m.mu.Lock()
	if m.gen != gen || m.conn == nil {
		m.mu.Unlock()
		return true, nil
	}
	if m.outstanding.n == 0 {
		m.mu.Unlock()
		return false, fmt.Errorf("netmem: reply op %d with nothing outstanding", op)
	}
	if want := m.outstanding.at(0).seq; want != seq {
		m.mu.Unlock()
		return false, fmt.Errorf("netmem: reply seq %d, expected %d", seq, want)
	}
	p := m.outstanding.pop()
	// Wake senders parked on the in-flight bound and Sync/Close waiters
	// watching for the queue to drain.
	m.cond.Broadcast()
	m.mu.Unlock()
	return false, m.complete(p, op, payload)
}

// complete decodes the reply into p and wakes its waiter. p is already
// off the outstanding queue, so nobody else will.
func (m *NetMem) complete(p *pendingOp, op byte, payload []byte) error {
	// fail delivers a fatal decode error to p's waiter (fatalize cannot
	// reach it any more) and passes the error through. Death first,
	// waiter second — the order the fenced case below keeps too: a woken
	// waiter may reach OnFatal at once.
	fail := func(err error) error {
		m.fatalize(err)
		p.finish(err)
		return err
	}
	switch op {
	case opErr:
		// A failed pipelined write has no caller to inform, and a fenced
		// reply dooms the whole client either way. Poison the client
		// BEFORE waking the waiter, so no concurrent operation can slip
		// through between the waiter learning of the fence and the
		// client dying.
		err := decodeErr(payload)
		fatal := errors.Is(err, ErrFenced) || p.wake == nil
		if fatal {
			m.fatalize(err)
		}
		p.finish(err)
		if fatal {
			return err
		}
		return nil
	case opAck:
	case opValue:
		d := wire.Decoder{B: payload}
		p.val = d.I64()
		if err := d.Done(); err != nil {
			return fail(err)
		}
	case opValues:
		if len(payload)%8 != 0 || len(payload)/8 != p.count {
			return fail(fmt.Errorf("netmem: range reply holds %d bytes for %d cells", len(payload), p.count))
		}
		for i := 0; i < p.count; i++ {
			p.vals[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	default:
		return fail(fmt.Errorf("netmem: unexpected reply op %d", op))
	}
	p.finish(nil)
	return nil
}

// breakConn marks the generation's connection dead and kicks the
// redialer (reader-goroutine entry point).
func (m *NetMem) breakConn(gen uint64, err error) {
	m.mu.Lock()
	if m.gen != gen {
		m.mu.Unlock()
		return
	}
	m.breakConnLocked(err)
	m.mu.Unlock()
}

// breakConnLocked severs the current connection and starts the
// redialer unless one is already running or the client is done.
func (m *NetMem) breakConnLocked(err error) {
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
		m.cond.Broadcast() // Close's drain ends with its connection
	}
	if m.closed || m.fatal != nil || m.redialing {
		return
	}
	m.redialing = true
	m.logf("netmem: connection lost (%v), redialing", err)
	eventlog.Logger().Warn("netmem_client_connection_lost",
		"addr", m.addr, "err", err, "outstanding", m.outstanding.n)
	go m.redial()
}

// redial runs the reconnect-and-resume loop with exponential backoff.
// Exhausting the budget is fatal: callers blocked in send are woken
// with the error.
func (m *NetMem) redial() {
	backoff := m.opts.RedialBackoff
	var lastErr error
	for attempt := 0; attempt < m.opts.RedialAttempts; attempt++ {
		m.mu.Lock()
		done := m.closed || m.fatal != nil
		m.mu.Unlock()
		if done {
			m.clearRedialing()
			return
		}
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		err := m.connect(false)
		if err == nil {
			m.clearRedialing()
			m.logf("netmem: reconnected to %s (epoch %d)", m.addr, m.Epoch())
			return
		}
		lastErr = err
		if errors.Is(err, ErrClosed) {
			m.clearRedialing()
			return
		}
		if errors.Is(err, ErrFenced) {
			// connect already fatalized; surface the death through
			// OnFatal too — an otherwise-idle client (no op in flight to
			// return the error to) must still die rather than linger.
			m.clearRedialing()
			m.fatalOut(err)
			return
		}
	}
	// Fatalize before clearing the flag, so clearRedialing's respawn
	// guard sees the death and does not start a pointless new redialer.
	err := fmt.Errorf("netmem: reconnect to %s failed after %d attempts: %w",
		m.addr, m.opts.RedialAttempts, lastErr)
	m.fatalize(err)
	m.clearRedialing()
	m.fatalOut(err)
}

func (m *NetMem) clearRedialing() {
	m.mu.Lock()
	m.redialing = false
	// A connection that died between our successful connect and this
	// point saw redialing still true and declined to start a new
	// redialer; that duty falls to us, or the client would park forever
	// with no connection, no redialer and no fatal error.
	if m.conn == nil && !m.closed && m.fatal == nil {
		m.redialing = true
		go m.redial()
	}
	m.mu.Unlock()
}

// fatalize kills the client: every outstanding and future operation
// fails with err. Interfaces that cannot return errors route through
// OnFatal at their next call.
func (m *NetMem) fatalize(err error) {
	m.mu.Lock()
	// A closing client can still die — of a fence on something it sent
	// before its release — until Close has let go of the connection.
	if m.fatal != nil || (m.closed && m.conn == nil) {
		m.mu.Unlock()
		return
	}
	m.fatal = err
	fenced := errors.Is(err, ErrFenced)
	cliFatal.Inc()
	if fenced {
		cliFenced.Inc()
	}
	// The client is dead; leave a forensic artifact — BEFORE anyone can
	// learn of the death. Every path to OnFatal (whose default panics
	// the process) runs through m.fatal or a waiter's done channel, and
	// both are published under this lock hold, so the dump is on stderr
	// before the first of them can fire. On a fence the error text
	// carries both epochs (ours and the lease's current one, from the
	// server's rejection), and the epoch attr names the lease this
	// client was writing under when it died.
	eventlog.CrashDump("netmem_client_fatal",
		"addr", m.addr, "epoch", m.epoch, "fenced", fenced, "err", err)
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
	}
	m.outstanding.failAll(err)
	m.cond.Broadcast()
	m.mu.Unlock()
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
			if err := m.call(getOp(opRenew, 0)); err != nil {
				if !errors.Is(err, ErrClosed) {
					m.fatalOut(err)
				}
				return
			}
		}
	}
}

// Read implements shmem.Mem with one awaited round trip.
func (m *NetMem) Read(addr int) int64 {
	op := getOp(opRead, addr)
	err := m.send(op)
	v := op.val
	putOp(op)
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
	op := &pendingOp{op: opWrite, addr: addr, val: v}
	if err := m.send(op); err != nil {
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
	for len(vals) > 0 {
		n := len(vals)
		if n > maxRange {
			n = maxRange
		}
		op := getOp(opWriteAcked, addr)
		op.vals = vals[:n]
		if err := m.call(op); err != nil {
			return err
		}
		addr += n
		vals = vals[n:]
	}
	return nil
}

// ReadRange implements membackend.Backend, chunking to the protocol's
// per-op bound.
func (m *NetMem) ReadRange(addr int, dst []int64) error {
	for len(dst) > 0 {
		n := len(dst)
		if n > maxRange {
			n = maxRange
		}
		op := getOp(opReadRange, addr)
		op.count, op.vals = n, dst[:n]
		if err := m.call(op); err != nil {
			return err
		}
		addr += n
		dst = dst[n:]
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
func (m *NetMem) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Sync implements membackend.Backend: it drains the pipeline (the
// server applies requests in order) and has the server flush the
// namespace backend to stable storage.
func (m *NetMem) Sync() error {
	return m.call(getOp(opSync, 0))
}

// Close releases the lease, flushes pipelined writes and closes the
// connection. If the connection is down at Close (mid-redial) or is
// lost under it, operations that were queued but never acknowledged are
// discarded — Close then returns an error naming how many, rather than
// pretending the writes landed. Close is idempotent; from the moment it
// begins, operations fail with ErrClosed (without invoking OnFatal) and
// nothing is redialed: the release is the last frame this client sends,
// so no renew — the renew loop's or a reconnect handshake's — can reach
// the server behind it and be answered "fenced", the death of a holder
// nobody contended with.
func (m *NetMem) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.renewOnce.Do(func() { close(m.renewStop) })
	// Best-effort graceful goodbye: queue a release, flush, and DRAIN
	// the acks (bounded) before closing the socket. Closing with unread
	// acks in our receive queue would RST the connection, and a reset
	// can make the server discard frames it has not yet read — silently
	// un-doing the release and the final writes. The drain ends when the
	// release's ack arrives, proving the server applied everything.
	var discardErr error
	if m.fatal == nil && m.conn != nil {
		op := &pendingOp{op: opRelease}
		op.seq = m.nextSeqLocked()
		m.outstanding.push(op)
		m.appendLocked(op)
		if err := m.flushLocked(); err != nil {
			discardErr = fmt.Errorf("netmem: close flush failed, up to %d operations may not have reached the server: %w",
				m.outstanding.n, err)
		} else {
			deadline := time.Now().Add(2 * time.Second)
			wake := time.AfterFunc(2*time.Second, func() {
				m.mu.Lock()
				m.cond.Broadcast()
				m.mu.Unlock()
			})
			for m.outstanding.n > 0 && m.conn != nil && m.fatal == nil && time.Now().Before(deadline) {
				m.cond.Wait()
			}
			wake.Stop()
			if n := m.outstanding.n; n > 0 {
				discardErr = fmt.Errorf("netmem: close gave up its connection with %d operations unacknowledged", n)
			}
		}
	} else if m.fatal == nil && m.outstanding.n > 0 {
		// Disconnected with queued operations: they never reached the
		// server and never will. (With fatal set, the operations were
		// already failed loudly via fatalize/OnFatal — no double report.)
		discardErr = fmt.Errorf("netmem: close while disconnected discarded %d unacknowledged operations", m.outstanding.n)
	}
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
	}
	m.outstanding.failAll(ErrClosed)
	m.cond.Broadcast()
	m.mu.Unlock()
	return discardErr
}

// stopRenew halts lease renewal without closing the client — a test
// hook to let a lease expire while the client lives (simulating a
// stalled writer).
func (m *NetMem) stopRenew() {
	m.renewOnce.Do(func() { close(m.renewStop) })
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
