package netmem

import (
	"bufio"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"atmostonce/internal/membackend"
	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/wire"
)

// ServerOptions configures a register server.
type ServerOptions struct {
	// Spec is the membackend spec template backing the namespaces
	// (default "atomic"). Instance-bearing kinds get a ".<namespace>"
	// suffix per namespace (membackend.WithSuffix), so
	// "mmap:/var/lib/amo/regs" stores namespace "jobs" in
	// "/var/lib/amo/regs.jobs".
	Spec string
	// DefaultTTL is the lease duration granted when a client asks for 0
	// (default 2s); MaxTTL clamps what a client may ask for (default 1m).
	DefaultTTL time.Duration
	MaxTTL     time.Duration
}

// connBuf sizes a server connection's read chunk and reply writer by the
// traffic: a request is at most 1 049 bytes in steady state (a journal
// flush's 128-word run + 25) with two awaited at a time, a reply is a
// 9–17 byte ack, and the one large frame — a recovery scan's opValues,
// 32 KiB + 9 — is written through by the bufio.Writer.
const connBuf = 4 << 10

// Server owns the register namespaces and serves the wire protocol.
// Each namespace is one membackend.Backend plus a writer-lease record;
// the backend stays open across client sessions, so a successor
// dispatcher reconnecting to a namespace sees the registers its
// predecessor wrote — over "mmap:" specs even across server restarts.
type Server struct {
	opts ServerOptions
	srv  wire.Server

	closed atomic.Bool // no namespace opens and no lease is granted
	mu     sync.Mutex
	nss    map[string]*namespace
}

// namespace is one register set: a backend and its lease.
type namespace struct {
	name string
	bk   membackend.Backend
	size int

	mu sync.Mutex
	// Lease state. epoch only ever increases; it is bumped on every
	// grant, so a write stamped with an older epoch proves its writer
	// lost the lease at some point since stamping it. holderID 0 means
	// released. An expired deadline does not by itself fence the holder
	// — only a successor's grant does — so a writer with no contender
	// survives arbitrary stalls.
	epoch    uint64
	holderID uint64
	deadline time.Time
	ttl      time.Duration
	cond     *sync.Cond // acquire waiters, woken on release/expiry/shutdown
}

// NewServer builds a server; Listen starts it.
func NewServer(opts ServerOptions) *Server {
	if opts.Spec == "" {
		opts.Spec = "atomic"
	}
	if opts.DefaultTTL <= 0 {
		opts.DefaultTTL = 2 * time.Second
	}
	if opts.MaxTTL <= 0 {
		opts.MaxTTL = time.Minute
	}
	return &Server{opts: opts, nss: make(map[string]*namespace)}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving, returning
// the bound address. A server listens once, and not after Close.
func (s *Server) Listen(addr string) (string, error) {
	return s.srv.Listen(addr, func(nc net.Conn) (serve, hangUp func()) {
		return func() { s.handle(nc) }, func() { nc.Close() }
	})
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close wakes the lease waiters, who answer that the server is shutting
// down, hangs up every connection and waits for the handlers, then closes
// the namespace backends.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock() // a getNamespace that saw closed unset has inserted by now
	nss := slices.Collect(maps.Values(s.nss))
	s.mu.Unlock()
	for _, ns := range nss {
		ns.mu.Lock()
		ns.cond.Broadcast()
		ns.mu.Unlock()
	}
	s.srv.Close()
	var err error
	for _, ns := range nss {
		if e := ns.bk.Close(); err == nil {
			err = e
		}
	}
	return err
}

// getNamespace returns the namespace for a hello, opening its backend
// on first use. reopened reports whether the namespace holds earlier
// state: either the backend reopened a durable file, or the namespace
// was already open in this server (a previous client session wrote it).
func (s *Server) getNamespace(name string, size int) (ns *namespace, reopened bool, werr *wireError) {
	if err := checkNamespaceName(name); err != nil {
		return nil, false, &wireError{codeBadNamespace, err.Error()}
	}
	if size <= 0 || size > maxCells {
		return nil, false, &wireError{codeProto, fmt.Sprintf("namespace size %d out of range (1..%d)", size, maxCells)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, false, &wireError{codeClosed, "server is shutting down"}
	}
	if ns, ok := s.nss[name]; ok {
		if ns.size != size {
			return nil, false, &wireError{codeSizeMismatch,
				fmt.Sprintf("namespace %q holds %d cells, hello asked for %d", name, ns.size, size)}
		}
		return ns, true, nil
	}
	spec := membackend.WithSuffix(s.opts.Spec, "."+name)
	bk, err := membackend.Open(spec, size)
	if err != nil {
		return nil, false, &wireError{codeBackend, err.Error()}
	}
	reopened = bk.Reopened()
	ns = &namespace{name: name, bk: bk, size: size}
	ns.cond = sync.NewCond(&ns.mu)
	s.nss[name] = ns
	eventlog.Logger().Debug("netmem_server_namespace_open",
		"namespace", name, "spec", spec, "cells", size, "reopened", reopened)
	return ns, reopened, nil
}

// checkNamespaceName restricts names to path-safe characters: they are
// spliced into backend specs (mmap file suffixes).
func checkNamespaceName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("namespace name must be 1..128 characters, got %d", len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("namespace name %q contains %q; allowed: letters, digits, '.', '_', '-'", name, c)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("namespace name %q is reserved", name)
	}
	return nil
}

// acquire implements the lease grant. A grant goes through when the
// lease is free, expired, or already held by the same client identity
// (a reconnecting writer re-acquires instantly); every grant bumps the
// epoch. With wait set, the caller parks until the lease can be
// granted; srv is consulted so server shutdown unblocks waiters, and
// dead (set by the caller's connection monitor) so a waiter whose
// client has vanished gives up instead of lingering as a ghost that
// could later be granted the lease — and fence a healthy incumbent
// that has no live contender.
func (ns *namespace) acquire(srv *Server, clientID uint64, ttl time.Duration, wait bool, dead *atomic.Bool) (epoch uint64, grantedTTL time.Duration, werr *wireError) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for {
		if srv.closed.Load() {
			return 0, 0, &wireError{codeClosed, "server is shutting down"}
		}
		if dead != nil && dead.Load() {
			return 0, 0, &wireError{codeClosed, "client went away while waiting for the lease"}
		}
		now := time.Now()
		if ns.holderID == 0 || ns.holderID == clientID || now.After(ns.deadline) {
			oldEpoch := ns.epoch
			ns.epoch++
			ns.holderID = clientID
			ns.ttl = ttl
			ns.deadline = now.Add(ttl)
			eventlog.Logger().Debug("netmem_server_lease_granted",
				"namespace", ns.name, "old_epoch", oldEpoch, "new_epoch", ns.epoch,
				"client", fmt.Sprintf("%#x", clientID), "ttl", ttl)
			return ns.epoch, ttl, nil
		}
		if !wait {
			return 0, 0, &wireError{codeLeaseHeld,
				fmt.Sprintf("lease held by another writer for up to %s", time.Until(ns.deadline).Round(time.Millisecond))}
		}
		// Park until the holder releases, the lease expires, or the
		// server shuts down. The timer re-checks the deadline for us.
		t := time.AfterFunc(time.Until(ns.deadline)+time.Millisecond, func() {
			ns.mu.Lock()
			ns.cond.Broadcast()
			ns.mu.Unlock()
		})
		ns.cond.Wait()
		t.Stop()
	}
}

// renew extends the holder's lease. The epoch must still be current:
// renewing after a successor's grant is the fencing moment where a
// stalled writer learns it is dead.
func (ns *namespace) renew(epoch uint64) *wireError {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if epoch == 0 || epoch != ns.epoch || ns.holderID == 0 {
		return &wireError{codeFenced, fmt.Sprintf("renew epoch %d, lease is at %d", epoch, ns.epoch)}
	}
	ns.deadline = time.Now().Add(ns.ttl)
	return nil
}

// release frees the lease if epoch is still current; stale releases are
// ignored (the lease they refer to is already gone).
func (ns *namespace) release(epoch uint64) {
	ns.mu.Lock()
	if epoch != 0 && epoch == ns.epoch && ns.holderID != 0 {
		ns.holderID = 0
		ns.cond.Broadcast()
	}
	ns.mu.Unlock()
}

// admit gates every mutating op: the stamped epoch must be the current
// lease. On nil it returns with ns.mu HELD — the caller applies its
// mutation and unlocks — so the mutation runs under the same lock that
// grants leases and the fencing check and the apply are one atomic step.
// Without that, a handler descheduled between check and apply could land
// a stale writer's mutation after its successor's grant (and after the
// successor's recovery scan), which is exactly the duplicate the fence
// exists to prevent.
func (ns *namespace) admit(epoch uint64) *wireError {
	ns.mu.Lock()
	if epoch == 0 || epoch != ns.epoch || ns.holderID == 0 {
		werr := &wireError{codeFenced, fmt.Sprintf("write stamped epoch %d, lease is at %d", epoch, ns.epoch)}
		ns.mu.Unlock()
		return werr
	}
	return nil
}

// wireError is an error that travels as an opErr frame.
type wireError struct {
	code uint16
	msg  string
}

func (e *wireError) Error() string { return fmt.Sprintf("netmem: server error %d: %s", e.code, e.msg) }

// handle serves one connection until EOF or error. Requests are
// processed strictly in order; replies are buffered and flushed when
// the read side has no more complete requests buffered (natural
// batching under pipelining) and always before a potentially blocking
// lease wait.
func (s *Server) handle(c net.Conn) {
	srvConns.Add(1)
	defer srvConns.Add(-1)
	remote := c.RemoteAddr().String()
	eventlog.Logger().Debug("netmem_server_conn_open", "remote", remote)
	defer func() {
		c.Close()
		eventlog.Logger().Debug("netmem_server_conn_closed", "remote", remote)
	}()
	fr := wire.NewFrameReader(c, connBuf)
	bw := bufio.NewWriterSize(c, connBuf)
	var (
		scratch []byte
		vals    []int64
		ns      *namespace
	)
	reply := func(seq uint32, op byte, payload []byte) bool {
		srvBytesOut.Add(wire.FrameBytes(len(payload)))
		return wire.WriteFrame(bw, op, seq, payload) == nil
	}
	replyErr := func(seq uint32, we *wireError) bool {
		if we.code == codeFenced {
			srvFencedRejs.Inc()
			nsName := ""
			if ns != nil {
				nsName = ns.name
			}
			// The detail text carries both epochs: the offender's stale
			// stamp and the lease's current one.
			eventlog.Logger().Warn("netmem_server_fenced_rejection",
				"namespace", nsName, "remote", remote, "detail", we.msg)
		}
		scratch = scratch[:0]
		scratch = wire.AppendU16(scratch, we.code)
		scratch = wire.AppendStr(scratch, we.msg)
		return reply(seq, opErr, scratch)
	}
	for {
		if fr.Buffered() == 0 && bw.Buffered() > 0 {
			if bw.Flush() != nil {
				return
			}
		}
		// The last reply is in bw or on the wire: a buffer a recovery scan
		// grew is not kept for the life of the connection.
		if cap(scratch) > connBuf {
			scratch = nil
		}
		if 8*cap(vals) > connBuf {
			vals = nil
		}
		op, seq, payload, err := fr.Next()
		if err != nil {
			bw.Flush()
			return
		}
		obsServerReq(op, len(payload))
		d := wire.Decoder{B: payload}
		ok := true
		switch op {
		case opHello:
			name := d.Str()
			size := d.U64()
			if d.Done() != nil {
				ok = replyErr(seq, &wireError{codeProto, "malformed hello"})
				break
			}
			n, reopened, werr := s.getNamespace(name, int(size))
			if werr != nil {
				ok = replyErr(seq, werr)
				break
			}
			ns = n
			scratch = scratch[:0]
			if reopened {
				scratch = append(scratch, 1)
			} else {
				scratch = append(scratch, 0)
			}
			ok = reply(seq, opHelloOK, scratch)

		case opAcquire:
			clientID := d.U64()
			ttlMs := d.U64()
			wait := d.U8() != 0
			if d.Done() != nil || ns == nil || clientID == 0 {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil && clientID != 0, ns))
				break
			}
			ttl := time.Duration(ttlMs) * time.Millisecond
			if ttl <= 0 {
				ttl = s.opts.DefaultTTL
			}
			if ttl > s.opts.MaxTTL {
				ttl = s.opts.MaxTTL
			}
			// The wait can park this handler; everything buffered must
			// reach the client first or its pipeline stalls against ours.
			if bw.Flush() != nil {
				return
			}
			// While a waiter is parked nothing else reads this
			// connection, so a monitor goroutine can safely block in
			// Wait: it fires when the client disconnects (waiter gives
			// up) or when the client's next request arrives post-grant
			// (monitor retires; the byte stays unconsumed for the main
			// loop, which resumes reading only after monitorDone).
			var dead *atomic.Bool
			var monitorDone chan struct{}
			if wait {
				dead = new(atomic.Bool)
				monitorDone = make(chan struct{})
				go func() {
					defer close(monitorDone)
					if err := fr.Wait(); err != nil {
						dead.Store(true)
						ns.mu.Lock()
						ns.cond.Broadcast()
						ns.mu.Unlock()
					}
				}()
			}
			epoch, granted, werr := ns.acquire(s, clientID, ttl, wait, dead)
			if werr != nil {
				if !replyErr(seq, werr) {
					return
				}
				if bw.Flush() != nil {
					return
				}
				if monitorDone != nil {
					<-monitorDone // reclaim the read side before the next readFrame
				}
				break
			}
			srvAcquires.Inc()
			scratch = scratch[:0]
			scratch = wire.AppendU64(scratch, epoch)
			scratch = wire.AppendU64(scratch, uint64(granted/time.Millisecond))
			if !reply(seq, opAcquireOK, scratch) || bw.Flush() != nil {
				// The grant never reached anyone: free the lease so the
				// next contender need not wait out a dead holder's TTL.
				ns.release(epoch)
				return
			}
			if monitorDone != nil {
				<-monitorDone
			}
			ok = true

		case opRenew:
			epoch := d.U64()
			if d.Done() != nil || ns == nil {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil, ns))
				break
			}
			if werr := ns.renew(epoch); werr != nil {
				ok = replyErr(seq, werr)
				break
			}
			srvRenews.Inc()
			ok = reply(seq, opAck, nil)

		case opRelease:
			epoch := d.U64()
			if d.Done() != nil || ns == nil {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil, ns))
				break
			}
			ns.release(epoch)
			ok = reply(seq, opAck, nil)

		case opRead:
			addr := d.U64()
			if d.Done() != nil || ns == nil {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil, ns))
				break
			}
			if !inRange(addr, 1, ns.size) {
				ok = replyErr(seq, &wireError{codeBadAddr, fmt.Sprintf("read addr %d ≥ size %d", addr, ns.size)})
				break
			}
			scratch = wire.AppendI64(scratch[:0], ns.bk.Read(int(addr)))
			ok = reply(seq, opValue, scratch)

		case opWrite:
			epoch := d.U64()
			addr := d.U64()
			val := d.I64()
			if d.Done() != nil || ns == nil {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil, ns))
				break
			}
			if !inRange(addr, 1, ns.size) {
				ok = replyErr(seq, &wireError{codeBadAddr, fmt.Sprintf("write addr %d ≥ size %d", addr, ns.size)})
				break
			}
			if werr := ns.admit(epoch); werr != nil {
				ok = replyErr(seq, werr)
				break
			}
			ns.bk.Write(int(addr), val)
			ns.mu.Unlock()
			ok = reply(seq, opAck, nil)

		case opWriteAcked:
			epoch := d.U64()
			addr := d.U64()
			// The rest of the payload is the value vector; the frame length
			// implies the count, like opValues in the other direction.
			shaped := len(payload) > 16 && len(payload)%8 == 0
			if !shaped || ns == nil {
				ok = replyErr(seq, protoOrNoNS(shaped, ns))
				break
			}
			count := len(d.B) / 8
			if !inRange(addr, count, ns.size) {
				ok = replyErr(seq, &wireError{codeBadAddr,
					fmt.Sprintf("acked write addr %d count %d outside size %d or over %d cells", addr, count, ns.size, maxRange)})
				break
			}
			vals = vals[:0]
			for i := 0; i < count; i++ {
				vals = append(vals, d.I64())
			}
			// The whole batch lands under one admit: a stale writer can
			// never leave part of its claim behind.
			if werr := ns.admit(epoch); werr != nil {
				ok = replyErr(seq, werr)
				break
			}
			err := ns.bk.WriteAcked(int(addr), vals)
			ns.mu.Unlock()
			if err != nil {
				ok = replyErr(seq, &wireError{codeBackend, err.Error()})
				break
			}
			ok = reply(seq, opAck, nil)

		case opReadRange:
			addr := d.U64()
			count := d.U32()
			if d.Done() != nil || ns == nil {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil, ns))
				break
			}
			if !inRange(addr, int(count), ns.size) {
				ok = replyErr(seq, &wireError{codeBadAddr,
					fmt.Sprintf("range addr %d count %d outside size %d or over %d cells", addr, count, ns.size, maxRange)})
				break
			}
			vals = slices.Grow(vals[:0], int(count))[:count]
			if err := ns.bk.ReadRange(int(addr), vals); err != nil {
				ok = replyErr(seq, &wireError{codeBackend, err.Error()})
				break
			}
			scratch = scratch[:0]
			for _, v := range vals {
				scratch = wire.AppendI64(scratch, v)
			}
			ok = reply(seq, opValues, scratch)

		case opSync:
			if d.Done() != nil || ns == nil {
				ok = replyErr(seq, protoOrNoNS(d.Done() == nil, ns))
				break
			}
			if err := ns.bk.Sync(); err != nil {
				ok = replyErr(seq, &wireError{codeBackend, err.Error()})
				break
			}
			ok = reply(seq, opAck, nil)

		default:
			ok = replyErr(seq, &wireError{codeProto, fmt.Sprintf("unknown op %d", op)})
		}
		if !ok {
			return
		}
	}
}

// inRange reports whether count cells from addr lie inside a namespace of
// size cells, count in 1..maxRange. Overflow-safe: addr and count are
// checked separately, never their sum (addr+count can wrap uint64 on a
// corrupt frame).
func inRange(addr uint64, count, size int) bool {
	return count >= 1 && count <= maxRange && addr < uint64(size) && uint64(count) <= uint64(size)-addr
}

// protoOrNoNS picks the right error for the shared "malformed payload
// or no hello yet" guard.
func protoOrNoNS(wellFormed bool, ns *namespace) *wireError {
	if !wellFormed {
		return &wireError{codeProto, "malformed request payload"}
	}
	if ns == nil {
		return &wireError{codeNoNamespace, "data op before hello"}
	}
	return &wireError{codeProto, "malformed request"}
}
