package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"atmostonce/internal/obs"
	"atmostonce/internal/wire"
)

// Priority is a submission's scheduling class on the wire — the same
// three classes as the dispatcher's (High jumps Normal jumps Low).
type Priority int8

const (
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
	PriorityLow    Priority = -1
)

// Status is a completion event's outcome.
type Status byte

const (
	StatusOK        Status = Status(evOK)
	StatusError     Status = Status(evError)
	StatusExpired   Status = Status(evExpired)
	StatusRecovered Status = Status(evRecovered)
	StatusCancelled Status = Status(evCancelled)
)

func (s Status) String() string {
	if int(s) < len(evNames) {
		return evNames[s]
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// Event is one streamed job completion.
type Event struct {
	Tenant string
	ID     uint64
	Status Status
	Task   string
	Err    string // the payload's error text, for StatusError
}

// ErrConnLost fails in-flight operations when the connection drops.
// Submits are NEVER resent across a redial: an unacked submit may or
// may not have been admitted (and logged, and journaled) by the server,
// and blindly resending it would re-admit the same work under a fresh
// job id — a duplicate by construction, which is the one failure mode
// this whole stack exists to rule out. Callers that need retry must
// decide idempotence at the application level.
var ErrConnLost = errors.New("jobd: connection lost")

// ErrClientClosed fails operations on a Close()d client.
var ErrClientClosed = errors.New("jobd: client closed")

// ServerError is a jopErr reply: the server rejected the request.
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("jobd: server error %d: %s", e.Code, e.Msg) }

// IsQuota reports whether err is a tenant-quota rejection.
func IsQuota(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == codeQuota
}

// IsCapacity reports whether err is a server-capacity rejection.
func IsCapacity(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == codeCapacity
}

// ClientOptions configures Dial.
type ClientOptions struct {
	// Name identifies the client in the hello frame (logs only).
	Name string
	// Redial enables automatic reconnection: on a dropped connection the
	// client fails every in-flight operation with ErrConnLost (see its
	// doc for why nothing is resent), re-dials with exponential backoff,
	// and re-establishes its subscriptions. Without it the first drop
	// kills the client.
	Redial bool
	// RedialAttempts bounds consecutive failed dials (default 5).
	RedialAttempts int
	// RedialBackoff is the initial backoff, doubling per attempt
	// (default 50ms).
	RedialBackoff time.Duration
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
}

// SubmitOptions carries a submission's scheduling contract.
type SubmitOptions struct {
	Priority Priority
	Deadline time.Time // zero = none
}

// clientReply is what a blocking call gets back: the reply's op, the
// job id of a jopSubmitOK, and — for the rare replies that carry one (an
// error, a stats document) — a copy of the payload.
type clientReply struct {
	op      byte
	id      uint64
	payload []byte
	err     error
}

// callSlot is one in-flight call's place in the in-order pending queue
// and the mailbox its reply lands in. Slots are recycled through
// slotPool, channel included: a slot is sent its reply exactly once per
// use — by the reader, or by failPending, whichever unlinks it from the
// queue under mu — and only the waiter, after receiving it, puts the
// slot back. A recycled slot can therefore never hear from an earlier
// connection: nothing that knew it then still points at it.
type callSlot struct {
	seq   uint32
	next  *callSlot
	reply chan clientReply // 1-buffered
}

var slotPool = sync.Pool{New: func() any { return &callSlot{reply: make(chan clientReply, 1)} }}

// Client is a pipelined jobd client, safe for concurrent use: each
// blocking call (Submit, Subscribe, Stats, Ping) occupies one slot in
// the in-order pending queue, so many goroutines sharing one Client
// share one pipelined connection.
type Client struct {
	addr string
	opts ClientOptions

	mu        sync.Mutex
	nc        net.Conn
	fr        *wire.FrameReader // over nc, from its handshake on. The reader goroutine's.
	wbuf      []byte            // request-frame scratch: encoded and written under mu
	seq       uint32
	head      *callSlot // in-flight calls, oldest first
	tail      *callSlot
	subs      map[string]func(Event)
	connected bool // false between a drop and a successful redial
	closed    bool
	dead      error // terminal failure, nil while usable

	// names memoises event tenant/task names. Reader-goroutine-owned.
	names wire.Interner

	reads, writes obs.Counter // socket calls, every connection so far
}

// ClientWireStats counts the socket calls a Client has issued over all
// its connections: what its share of the wire costs in system calls.
type ClientWireStats struct {
	Reads  uint64
	Writes uint64
}

// WireStats returns the client's socket-call counts so far.
func (c *Client) WireStats() ClientWireStats {
	return ClientWireStats{Reads: c.reads.Value(), Writes: c.writes.Value()}
}

// Dial connects, performs the hello handshake and starts the reader.
func Dial(addr string, o ClientOptions) (*Client, error) {
	if o.RedialAttempts == 0 {
		o.RedialAttempts = 5
	}
	if o.RedialBackoff == 0 {
		o.RedialBackoff = 50 * time.Millisecond
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, opts: o, subs: make(map[string]func(Event))}
	if err := c.connect(); err != nil {
		return nil, err
	}
	go c.reader()
	return c, nil
}

// connect dials and runs the synchronous hello handshake; on success it
// installs the connection. Caller must not hold mu.
func (c *Client) connect() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	// One reader from the first byte on: what a Read delivers behind the
	// last handshake reply — a tick writes acks and events in one Write —
	// is readConn's to parse, so the reader is installed with the socket.
	fr := wire.NewFrameReader(countedReader{nc, &c.reads}, clientChunk)
	write := func(b []byte) error {
		c.writes.Inc()
		_, err := nc.Write(b)
		return err
	}
	b := wire.AppendStr(wire.AppendU32(wire.AppendHeader(nil, jopHello, 1, 0), protoVersion), c.opts.Name)
	wire.EndFrame(b, 0)
	if err := write(b); err != nil {
		nc.Close()
		return err
	}
	op, _, payload, err := fr.Next()
	if err != nil {
		nc.Close()
		return err
	}
	if op != jopHelloOK {
		nc.Close()
		return fmt.Errorf("jobd: hello rejected (op %d)", op)
	}
	dec := wire.Decoder{B: payload}
	dec.U32() // server's protocol version; equality is implied by jopHelloOK
	dec.Str() // server incarnation: Stats().Incarnation reports it
	if err := dec.Done(); err != nil {
		nc.Close()
		return err
	}

	// Re-establish subscriptions synchronously on the new connection —
	// events must not race the acks, and the reader is not running yet.
	c.mu.Lock()
	tenants := make([]string, 0, len(c.subs))
	for t := range c.subs {
		tenants = append(tenants, t)
	}
	c.mu.Unlock()
	seq := uint32(1)
	b = b[:0]
	for _, t := range tenants {
		seq++
		at := len(b)
		b = wire.AppendStr(wire.AppendHeader(b, jopSubscribe, seq, 0), t)
		wire.EndFrame(b, at)
	}
	if len(b) > 0 {
		if err := write(b); err != nil {
			nc.Close()
			return err
		}
	}
	for range tenants {
		op, _, _, err := fr.Next()
		// Events can already interleave here once the first subscribe
		// lands; skip them — the reader will stream the rest.
		for err == nil && op == jopEvent {
			op, _, _, err = fr.Next()
		}
		if err != nil {
			nc.Close()
			return err
		}
		if op != jopAck {
			nc.Close()
			return fmt.Errorf("jobd: resubscribe rejected (op %d)", op)
		}
	}

	c.mu.Lock()
	if c.closed {
		// Close landed during the dial: it hung up the connection it could
		// see, and this one must not outlive it.
		c.mu.Unlock()
		nc.Close()
		return ErrClientClosed
	}
	c.nc, c.fr = nc, fr
	c.seq = seq
	c.connected = true
	c.mu.Unlock()
	return nil
}

// rpc sends one request and blocks for its in-order reply. enc (nil for
// an empty payload) appends the request's fields; it runs under mu,
// writing straight into the connection's request buffer, so a call
// allocates neither a payload nor a frame.
func (c *Client) rpc(op byte, enc func(b []byte) []byte) (clientReply, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return clientReply{}, ErrClientClosed
	}
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return clientReply{}, err
	}
	if !c.connected {
		// Between a drop and a successful redial: fail fast rather than
		// enqueue an op nobody would ever resolve.
		c.mu.Unlock()
		return clientReply{}, ErrConnLost
	}
	c.seq++
	sl := slotPool.Get().(*callSlot)
	sl.seq = c.seq
	if c.tail == nil {
		c.head = sl
	} else {
		c.tail.next = sl
	}
	c.tail = sl
	b := wire.AppendHeader(c.wbuf[:0], op, sl.seq, 0)
	if enc != nil {
		b = enc(b)
	}
	wire.EndFrame(b, 0)
	c.writes.Inc()
	if _, err := c.nc.Write(b); err != nil {
		c.nc.Close() // reader observes the broken conn and fails pending
	}
	if cap(b) > bufKeep {
		b = nil
	}
	c.wbuf = b
	c.mu.Unlock()
	r := <-sl.reply
	slotPool.Put(sl)
	if r.err != nil {
		return clientReply{}, r.err
	}
	if r.op == jopErr {
		dec := wire.Decoder{B: r.payload}
		se := &ServerError{Code: dec.U16(), Msg: dec.Str()}
		if err := dec.Done(); err != nil {
			return clientReply{}, err
		}
		return clientReply{}, se
	}
	return r, nil
}

// Submit submits one job and blocks for its admission decision: the
// assigned job id, or the server's rejection (see IsQuota/IsCapacity).
// Admission is not completion — subscribe to the tenant for that.
func (c *Client) Submit(tenant, task string, version uint32, payload []byte, o SubmitOptions) (uint64, error) {
	var dl int64
	if !o.Deadline.IsZero() {
		dl = o.Deadline.UnixNano()
	}
	d := desc{tenant: tenant, task: task, version: version, pri: int8(o.Priority), deadline: dl, payload: payload}
	r, err := c.rpc(jopSubmit, d.encode)
	if err != nil {
		return 0, err
	}
	if r.op != jopSubmitOK {
		return 0, fmt.Errorf("jobd: unexpected submit reply op %d", r.op)
	}
	return r.id, nil
}

// Subscribe streams the tenant's completion events to fn, which runs on
// the client's reader goroutine — keep it fast, or completions (and
// replies) back up behind it. The subscription survives redials.
func (c *Client) Subscribe(tenant string, fn func(Event)) error {
	if fn == nil {
		return errors.New("jobd: Subscribe with nil handler")
	}
	c.mu.Lock()
	c.subs[tenant] = fn
	c.mu.Unlock()
	_, err := c.rpc(jopSubscribe, func(b []byte) []byte { return wire.AppendStr(b, tenant) })
	if err != nil {
		c.mu.Lock()
		delete(c.subs, tenant)
		c.mu.Unlock()
	}
	return err
}

// Unsubscribe stops the tenant's event stream.
func (c *Client) Unsubscribe(tenant string) error {
	c.mu.Lock()
	delete(c.subs, tenant)
	c.mu.Unlock()
	_, err := c.rpc(jopUnsubscribe, func(b []byte) []byte { return wire.AppendStr(b, tenant) })
	return err
}

// Stats fetches the server's stats document.
func (c *Client) Stats() (ServerStats, error) {
	r, err := c.rpc(jopStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	var st ServerStats
	if err := json.Unmarshal(r.payload, &st); err != nil {
		return ServerStats{}, fmt.Errorf("jobd: stats decode: %w", err)
	}
	return st, nil
}

// Ping round-trips the connection.
func (c *Client) Ping() error {
	_, err := c.rpc(jopPing, nil)
	return err
}

// Close hangs up and fails any in-flight operations.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	return nil
}

// failPending marks the connection down and resolves every in-flight
// op with err. Marking down and emptying the queue under one lock hold
// is what prevents a racing rpc from enqueueing an op nobody will
// resolve.
func (c *Client) failPending(err error) {
	c.mu.Lock()
	c.connected = false
	sl := c.head
	c.head, c.tail = nil, nil
	c.mu.Unlock()
	for sl != nil {
		next := sl.next // read first: the waiter recycles sl the moment it has its reply
		sl.next = nil
		sl.reply <- clientReply{err: err}
		sl = next
	}
}

// reader drains the connection: events to their handlers, replies to
// their in-order waiters. On a connection drop it fails in-flight ops
// and, when Redial is set, reconnects and carries on.
func (c *Client) reader() {
	for {
		err := c.readConn()
		c.failPending(fmt.Errorf("%w: %w", ErrConnLost, err))
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if !c.opts.Redial {
			c.markDead(err)
			return
		}
		backoff := c.opts.RedialBackoff
		redialed := false
		for i := 0; i < c.opts.RedialAttempts; i++ {
			time.Sleep(backoff)
			backoff *= 2
			c.mu.Lock()
			closed = c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			if cerr := c.connect(); cerr == nil {
				redialed = true
				break
			}
		}
		if !redialed {
			c.markDead(fmt.Errorf("jobd: redial budget exhausted after: %w", err))
			return
		}
	}
}

func (c *Client) markDead(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = fmt.Errorf("%w: %w", ErrConnLost, err)
	}
	c.mu.Unlock()
}

// readConn pumps one connection until it breaks, returning the error.
//
// Buffer ownership: every frame's payload aliases the reader's chunk and
// dies at the next frame — nothing here Keeps one. What leaves this loop
// is copied or scalar: an event's names come out of c.names, its error
// text is a fresh string, a submit's id travels in the slot, and only the
// replies that have a body (errors, stats) get a payload copy.
func (c *Client) readConn() error {
	c.mu.Lock()
	fr := c.fr
	c.mu.Unlock()
	for {
		op, seq, payload, err := fr.Next()
		if err != nil {
			return err
		}
		dec := wire.Decoder{B: payload}
		if op == jopEvent {
			ev := Event{Tenant: dec.StrIn(&c.names), ID: dec.U64(), Status: Status(dec.U8()), Task: dec.StrIn(&c.names), Err: dec.Str()}
			if err := dec.Done(); err != nil {
				return err
			}
			c.mu.Lock()
			fn := c.subs[ev.Tenant]
			c.mu.Unlock()
			if fn != nil {
				fn(ev)
			}
			continue
		}
		reply := clientReply{op: op}
		if op == jopSubmitOK {
			reply.id = dec.U64()
			if err := dec.Done(); err != nil {
				reply = clientReply{err: err}
			}
		} else if len(payload) > 0 {
			// The waiter decodes it after this loop has read on.
			reply.payload = append([]byte(nil), payload...)
		}
		c.mu.Lock()
		sl := c.head
		if sl == nil {
			c.mu.Unlock()
			return fmt.Errorf("jobd: unsolicited reply op %d seq %d", op, seq)
		}
		if c.head = sl.next; c.head == nil {
			c.tail = nil
		}
		sl.next = nil
		c.mu.Unlock()
		if sl.seq != seq {
			sl.reply <- clientReply{err: fmt.Errorf("jobd: reply seq %d, want %d (pipeline desync)", seq, sl.seq)}
			return fmt.Errorf("jobd: pipeline desync")
		}
		sl.reply <- reply
	}
}
