package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

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

// ErrConnLost fails in-flight operations when the connection drops, calls
// made before the redial is done, and every call of a client a drop
// killed (no Redial, or its budget spent): jobd's drop policy over the
// client core (wire.Proto.Lost) is fail, never resend. An unacked submit
// may or may not have been admitted (and logged, and journaled) by the
// server, and blindly resending it would re-admit the same work under a
// fresh job id — a duplicate by construction, which is the one failure
// mode this whole stack exists to rule out. Callers that need retry must
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
	// RedialBackoff is the pause before a redial's second dial, doubling
	// per attempt after it; the first is immediate (default 50ms).
	RedialBackoff time.Duration
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
}

// SubmitOptions carries a submission's scheduling contract.
type SubmitOptions struct {
	Priority Priority
	Deadline time.Time // zero = none
}

// jobCall is a jobd op's request fields and what its reply decodes to:
// the reply op, a submitOK's id, a stats document's copy.
type jobCall struct {
	d       desc   // submit
	tenant  string // subscribe, unsubscribe
	op      byte
	id      uint64
	payload []byte
}

var calls wire.Pool[jobCall]

// Client is a pipelined jobd client over the client core (wire.Client),
// safe for concurrent use: goroutines sharing one Client share one
// connection, its in-order queue of calls and its combining writer.
type Client struct {
	c *wire.Client[jobCall]

	mu   sync.Mutex
	subs map[string]func(Event)

	names wire.Interner // event names; the reader's (one runs at a time)
}

// ClientWireStats counts the socket calls a Client has issued over all
// its connections: what its share of the wire costs in system calls.
type ClientWireStats struct {
	Reads  uint64
	Writes uint64
}

// WireStats returns the client's socket-call counts so far.
func (c *Client) WireStats() ClientWireStats {
	r, w := c.c.SocketCalls()
	return ClientWireStats{Reads: r, Writes: w}
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
	attempts := 0
	if o.Redial {
		attempts = o.RedialAttempts
	}
	c := &Client{subs: make(map[string]func(Event))}
	c.c = wire.NewClient(wire.Proto[jobCall]{
		Name:           "jobd",
		Addr:           addr,
		DialTimeout:    o.DialTimeout,
		RedialAttempts: attempts,
		RedialBackoff:  o.RedialBackoff,
		Closed:         ErrClientClosed,
		Encode: func(b []byte, k *wire.Call[jobCall]) []byte {
			switch k.Op {
			case jopHello:
				b = wire.AppendStr(wire.AppendU32(b, protoVersion), o.Name)
			case jopSubmit:
				b = k.Arg.d.encode(b)
			case jopSubscribe, jopUnsubscribe:
				b = wire.AppendStr(b, k.Arg.tenant)
			}
			return b
		},
		Reply:     decodeReply,
		Event:     c.event,
		Handshake: c.handshake,
		// The drop policy: fail, never resend (see ErrConnLost).
		Lost: func(err error) error { return fmt.Errorf("%w: %w", ErrConnLost, err) },
		Die:  func(err error) { c.c.Kill(fmt.Errorf("%w: %w", ErrConnLost, err), nil) },
	})
	if err := c.c.Connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// handshake opens a connection in one flight: hello and a resubscribe
// per subscription leave in one write, and their replies come back
// through the reader like any other, so an event the server sends behind
// the first resubscribe's ack reaches its handler.
func (c *Client) handshake(nc net.Conn, _ bool) error {
	c.mu.Lock()
	hs := make([]*wire.Call[jobCall], 1, 1+len(c.subs))
	hs[0] = wire.NewCall[jobCall](jopHello)
	for t := range c.subs {
		k := wire.NewCall[jobCall](jopSubscribe)
		k.Arg.tenant = t
		hs = append(hs, k)
	}
	c.mu.Unlock()
	c.c.Flight(nc, hs...)
	for i, k := range hs {
		want := jopAck
		if i == 0 {
			want = jopHelloOK
		}
		if err := k.Wait(); err != nil {
			return fmt.Errorf("jobd: handshake op %d: %w", k.Op, err)
		} else if k.Arg.op != want {
			return fmt.Errorf("jobd: handshake op %d answered with op %d", k.Op, k.Arg.op)
		}
	}
	return nil
}

// decodeReply decodes a reply into its call. The payload dies on return:
// only a stats document leaves as a copy.
func decodeReply(k *wire.Call[jobCall], op byte, payload []byte) error {
	k.Arg.op = op
	dec := wire.Decoder{B: payload}
	switch op {
	case jopErr:
		se := &ServerError{Code: dec.U16(), Msg: dec.Str()}
		if err := dec.Done(); err != nil {
			return err
		}
		return se
	case jopSubmitOK:
		k.Arg.id = dec.U64()
	case jopHelloOK:
		dec.U32() // server's protocol version; equality is implied by jopHelloOK
		dec.Str() // server incarnation: Stats().Incarnation reports it
	case jopStatsOK:
		k.Arg.payload = bytes.Clone(payload)
		return nil
	}
	return dec.Done()
}

// event hands a completion to its tenant's handler, which may keep it.
func (c *Client) event(op byte, payload []byte) error {
	if op != jopEvent {
		return fmt.Errorf("jobd: unsolicited reply op %d", op)
	}
	dec := wire.Decoder{B: payload}
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
	return nil
}

// rpc runs one call and recycles it, returning what its reply decoded.
func (c *Client) rpc(k *wire.Call[jobCall]) (jobCall, error) {
	err := c.c.Do(k)
	r := k.Arg
	calls.Put(k)
	return r, err
}

// Submit submits one job and blocks for its admission decision: the
// assigned job id, or the server's rejection (see IsQuota/IsCapacity).
// Admission is not completion — subscribe to the tenant for that.
func (c *Client) Submit(tenant, task string, version uint32, payload []byte, o SubmitOptions) (uint64, error) {
	var dl int64
	if !o.Deadline.IsZero() {
		dl = o.Deadline.UnixNano()
	}
	k := calls.Get(jopSubmit)
	k.Arg.d = desc{tenant: tenant, task: task, version: version, pri: int8(o.Priority), deadline: dl, payload: payload}
	r, err := c.rpc(k)
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
	err := c.tenantOp(jopSubscribe, tenant)
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
	return c.tenantOp(jopUnsubscribe, tenant)
}

func (c *Client) tenantOp(op byte, tenant string) error {
	k := calls.Get(op)
	k.Arg.tenant = tenant
	_, err := c.rpc(k)
	return err
}

// Stats fetches the server's stats document.
func (c *Client) Stats() (ServerStats, error) {
	r, err := c.rpc(calls.Get(jopStats))
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
	_, err := c.rpc(calls.Get(jopPing))
	return err
}

// Close hangs up and fails any in-flight operations with ErrClientClosed.
func (c *Client) Close() error { return c.c.Close(nil, 0) }
