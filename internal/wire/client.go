package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"atmostonce/internal/obs"
)

// Client is the pipelined client core under internal/netmem and
// internal/jobd: one connection, seq-stamped frames matched oldest first
// against the calls in flight, a reader goroutine, one combining writer,
// and redial with backoff behind a handshake that leaves in one flight
// ahead of anything else. A protocol brings the rest as a Proto. Calls
// are serialized at send under one lock and written in that order, and a
// server applies a connection's requests in order, so a call that
// returned before another started was applied first.
type Client[A any] struct {
	p Proto[A]

	mu        sync.Mutex
	cond      sync.Cond // the queue moved, or the client changed state
	conn      net.Conn  // nil while down
	ready     bool      // conn's handshake is done: calls go out as they come
	opened    bool      // the first connect is done: a drop redials
	redialing bool
	closed    bool
	dead      error  // the client's death
	down      error  // Lost(cause) of the last drop, answered until a redial is done
	seq       uint32 // of the last frame stamped
	q         fifo[A]
	wbuf      []byte // frames not yet handed to the socket
	spare     []byte // the writer's other buffer
	writing   bool   // a caller is writing: whoever appends leaves it to them

	readers       sync.WaitGroup // one reader goroutine at a time, across redials
	reads, writes obs.Counter    // socket calls, every connection so far
}

// Proto is what a protocol brings to a Client.
type Proto[A any] struct {
	Name           string // prefixes the client's own errors
	Addr           string
	DialTimeout    time.Duration
	RedialAttempts int           // connects one redial may fail; 0: a drop is the client's death
	RedialBackoff  time.Duration // the pause before a redial's second connect, doubled at each after
	Closed         error         // what calls fail with once Close has begun

	// Encode appends c's request payload (under the lock, at every send);
	// Reply decodes c's reply on the reader goroutine into c's outcome —
	// a reply that dooms the client Kills it before the waiter wakes;
	// Event takes a seq-0 frame (nil: none), an error breaks the connection.
	Encode func(b []byte, c *Call[A]) []byte
	Reply  func(c *Call[A], op byte, payload []byte) error
	Event  func(op byte, payload []byte) error
	// Handshake opens a fresh connection (first: the initial one): it sends
	// its calls with Flight and Waits for them; calls go out once it is done.
	Handshake func(nc net.Conn, first bool) error
	// Lost is the drop policy. nil keeps the calls a broken connection left
	// unanswered, and those made while it is down, and sends them in order,
	// re-stamped, behind the next handshake: they must be safe to apply
	// twice. Otherwise they fail with Lost(cause), as do new calls until a
	// redial is done.
	Lost func(cause error) error
	// Down and Up (either may be nil) bracket a redial; Die must Kill a
	// client that cannot go on: its redial budget ran out, or its peer
	// answered out of order.
	Down func(cause error, inFlight int)
	Up   func(resent int)
	Die  func(err error)
}

const (
	maxInFlight = 2048 // what a client queues while down, and a peer owes it
	// Posted calls flush at flushThreshold buffered bytes. Requests are
	// about a KiB, replies and events tens of bytes: the read chunk is 4 KiB
	// (the rare large frame gets its own), and so is a write buffer at rest
	// (flushLocked).
	flushThreshold = 32 << 10
	bufKeep        = 4 << 10
	clientChunk    = 4 << 10
)

// Call is one request: its op, the protocol's request and reply fields,
// and its outcome. An awaited call (NewCall, Pool) has a wake-up channel;
// a posted call, a literal, has none.
type Call[A any] struct {
	Op  byte
	Arg A
	Err error

	seq  uint32
	hs   bool // a handshake's: it fails with its connection, never resent
	wake chan struct{}
}

// NewCall returns an awaited call of op.
func NewCall[A any](op byte) *Call[A] { return &Call[A]{Op: op, wake: make(chan struct{}, 1)} }

// Wait blocks until c is answered or failed and returns its outcome.
func (c *Call[A]) Wait() error {
	<-c.wake
	return c.Err
}

// Awaited reports whether anyone waits for c's reply.
func (c *Call[A]) Awaited() bool { return c.wake != nil }

// finish hands c its outcome. Whoever unlinks c from the queue under the
// lock finishes it, once per use; its waiter may recycle it at once.
func (c *Call[A]) finish(err error) {
	c.Err = err
	if c.wake != nil {
		c.wake <- struct{}{}
	}
}

// Pool recycles awaited calls, so a round trip allocates nothing. A call
// goes back only from its waiter, after Wait: nothing else points at it
// then, so a recycled call never hears from an earlier use.
type Pool[A any] struct{ p sync.Pool }

func (p *Pool[A]) Get(op byte) *Call[A] {
	if c, ok := p.p.Get().(*Call[A]); ok {
		c.Op = op
		return c
	}
	return NewCall[A](op)
}

func (p *Pool[A]) Put(c *Call[A]) {
	*c = Call[A]{wake: c.wake}
	p.p.Put(c)
}

// NewClient returns a client of p; Connect opens it.
func NewClient[A any](p Proto[A]) *Client[A] {
	cl := &Client[A]{p: p}
	cl.cond.L = &cl.mu
	return cl
}

// Connect makes the first connection. A client it fails for is done.
func (cl *Client[A]) Connect() error { return cl.connect(true) }

// connect dials, starts the reader, runs the handshake and sends behind
// it, in order, every call the drop policy kept.
func (cl *Client[A]) connect(first bool) error {
	nc, err := net.DialTimeout("tcp", cl.p.Addr, cl.p.DialTimeout)
	if err != nil {
		return err
	}
	cl.readers.Wait() // the last connection's reader has stood down: events keep their order
	cl.mu.Lock()
	if err := cl.stateLocked(); err != nil {
		cl.mu.Unlock()
		nc.Close()
		return err
	}
	cl.conn, cl.ready, cl.wbuf = nc, false, cl.wbuf[:0]
	cl.readers.Add(1)
	go cl.readLoop(nc)
	cl.mu.Unlock()

	err = cl.p.Handshake(nc, first)
	cl.mu.Lock()
	if err == nil && cl.conn != nc {
		err = errLost
	}
	if err != nil {
		cl.breakLocked(nc, err)
		cl.mu.Unlock()
		return err
	}
	cl.ready, cl.opened, cl.redialing = true, true, false
	resent := cl.q.n
	for i := 0; i < resent; i++ {
		cl.encodeLocked(cl.q.at(i))
	}
	cl.flushLocked() // a failure breaks the connection, and that starts the next redial
	cl.cond.Broadcast()
	cl.mu.Unlock()
	if !first && cl.p.Up != nil {
		cl.p.Up(resent)
	}
	return nil
}

// stateLocked is the error of a client that is dead or closed, else nil.
func (cl *Client[A]) stateLocked() error {
	if cl.dead == nil && cl.closed {
		return cl.p.Closed
	}
	return cl.dead
}

// errLost fails a handshake whose connection went from under it.
var errLost = errors.New("wire: connection lost during its handshake")

// Flight sends calls, the handshake of nc, in one write ahead of
// everything queued. If nc is gone, or goes, they fail.
func (cl *Client[A]) Flight(nc net.Conn, calls ...*Call[A]) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.conn != nc {
		for _, c := range calls {
			c.finish(errLost)
		}
		return
	}
	for i := len(calls) - 1; i >= 0; i-- {
		calls[i].hs = true
		cl.q.pushFront(calls[i])
	}
	for _, c := range calls {
		cl.encodeLocked(c)
	}
	cl.flushLocked()
}

// Do sends c and waits for its reply, returning its outcome.
func (cl *Client[A]) Do(c *Call[A]) error {
	if err := cl.send(c); err != nil {
		return err
	}
	return c.Wait()
}

// Post queues c and returns. It goes out with the next awaited call, or
// once a burst passes flushThreshold.
func (cl *Client[A]) Post(c *Call[A]) error { return cl.send(c) }

func (cl *Client[A]) send(c *Call[A]) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for {
		err := cl.stateLocked()
		if err == nil && !cl.ready && cl.p.Lost != nil {
			err = cl.down
		}
		if err != nil {
			return err
		}
		if cl.q.n < maxInFlight {
			break
		}
		cl.flushLocked() // push the buffered tail out: its replies drain the queue
		if cl.q.n >= maxInFlight {
			cl.cond.Wait()
		}
	}
	cl.q.push(c)
	if cl.ready {
		cl.encodeLocked(c)
		if c.wake != nil || len(cl.wbuf) > flushThreshold {
			cl.flushLocked()
		}
	}
	return nil
}

// encodeLocked stamps c with the next seq and appends its frame.
func (cl *Client[A]) encodeLocked(c *Call[A]) {
	if cl.seq++; cl.seq == 0 {
		cl.seq = 1 // seq 0 is an event's
	}
	c.seq = cl.seq
	at := len(cl.wbuf)
	cl.wbuf = cl.p.Encode(AppendHeader(cl.wbuf, c.Op, c.seq, 0), c)
	EndFrame(cl.wbuf, at)
}

// flushLocked is the combining writer. A caller that finds a write in
// progress leaves what it appended to that writer. Otherwise it becomes
// the writer: until nothing is left, it swaps the buffer out and writes
// it with the lock released, callers appending behind it meanwhile. A
// written buffer past bufKeep is kept only while writes fill a quarter of
// it, so a burst's buffers last as long as the burst. A failed write
// breaks its connection.
func (cl *Client[A]) flushLocked() {
	if cl.writing {
		return
	}
	cl.writing = true
	for len(cl.wbuf) > 0 && cl.conn != nil {
		nc, buf := cl.conn, cl.wbuf
		cl.wbuf, cl.spare = cl.spare[:0], nil
		cl.mu.Unlock()
		cl.writes.Inc()
		_, err := nc.Write(buf)
		cl.mu.Lock()
		if cap(buf) <= max(bufKeep, 4*len(buf)) {
			cl.spare = buf
		}
		if err != nil {
			cl.breakLocked(nc, err)
		}
	}
	cl.writing = false
}

// readLoop reads nc until it breaks or is superseded.
func (cl *Client[A]) readLoop(nc net.Conn) {
	defer cl.readers.Done()
	fr := NewFrameReader(CountedReader{nc, &cl.reads}, clientChunk)
	for {
		op, seq, payload, err := fr.Next()
		if err == nil && seq == 0 && cl.p.Event != nil {
			if err = cl.p.Event(op, payload); err == nil {
				continue
			}
		}
		cl.mu.Lock()
		if err != nil || cl.conn != nc {
			cl.breakLocked(nc, err)
			cl.mu.Unlock()
			return
		}
		if cl.q.n == 0 || cl.q.at(0).seq != seq {
			cl.mu.Unlock()
			// A peer that answers out of order is not speaking the protocol:
			// nothing it says can be matched, so the client dies rather than
			// redial into it.
			cl.p.Die(fmt.Errorf("%s: reply op %d seq %d matches no call in flight", cl.p.Name, op, seq))
			return
		}
		c := cl.q.pop()
		cl.cond.Broadcast() // senders parked on the bound, Close's drain
		cl.mu.Unlock()
		c.finish(cl.p.Reply(c, op, payload))
	}
}

// breakLocked hangs up nc, if it is still the connection, and applies the
// drop policy. A client past its first connect then redials, unless a
// redial runs or it has no redial budget: then the drop is its death.
func (cl *Client[A]) breakLocked(nc net.Conn, cause error) {
	if cl.conn != nc {
		return
	}
	nc.Close()
	cl.conn, cl.ready = nil, false
	cl.cond.Broadcast()
	for cl.q.n > 0 && cl.q.at(0).hs {
		cl.q.pop().finish(cause)
	}
	if cl.stateLocked() != nil {
		return
	}
	if cl.down = cause; cl.p.Lost != nil {
		cl.down = cl.p.Lost(cause)
		cl.failLocked(cl.down)
	}
	switch {
	case !cl.opened || cl.redialing: // the first connect reports for itself; a redial retries
	case cl.p.RedialAttempts == 0:
		cl.dead = cl.down
		cl.failLocked(cl.dead)
	default:
		cl.redialing = true
		go cl.redial(cause, cl.q.n)
	}
}

// redial reconnects with exponential backoff; a spent budget is the
// client's death.
func (cl *Client[A]) redial(cause error, inFlight int) {
	if cl.p.Down != nil {
		cl.p.Down(cause, inFlight)
	}
	backoff, err := cl.p.RedialBackoff, cause
	for attempt := 0; attempt < cl.p.RedialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = cl.connect(false); err == nil {
			return
		}
		cl.mu.Lock()
		over := cl.stateLocked() != nil
		cl.mu.Unlock()
		if over {
			return
		}
	}
	cl.p.Die(fmt.Errorf("%s: reconnect to %s failed after %d attempts: %w", cl.p.Name, cl.p.Addr, cl.p.RedialAttempts, err))
}

// failLocked empties the queue, failing every call with err.
func (cl *Client[A]) failLocked(err error) {
	for cl.q.n > 0 {
		cl.q.pop().finish(err)
	}
}

// Kill ends the client: every call in flight or made later fails with
// err. last, if not nil, runs first under the lock, so nothing learns of
// the death before it. Kill reports false, doing nothing, if the client
// is already dead, or closed and hung up.
func (cl *Client[A]) Kill(err error, last func()) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.dead != nil || cl.closed && cl.conn == nil {
		return false
	}
	cl.dead = err
	if last != nil {
		last()
	}
	cl.hangUpLocked(err)
	return true
}

func (cl *Client[A]) hangUpLocked(err error) {
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
	cl.ready = false
	cl.failLocked(err)
	cl.cond.Broadcast()
}

// Close ends the client: from its start calls fail with Closed and
// nothing is redialed. With the connection up and last not nil, last is
// queued behind everything in flight and Close waits, at most drain, for
// the replies up to it: it is the final frame the peer sees, and nothing
// unread is left to reset the connection. It then hangs up, failing what
// is left, and — last given, the client alive — counts in its error the
// calls never answered. Close is idempotent.
func (cl *Client[A]) Close(last *Call[A], drain time.Duration) (err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	if last != nil && cl.ready {
		cl.q.push(last)
		cl.encodeLocked(last)
		cl.flushLocked()
		wake := time.AfterFunc(drain, func() {
			cl.mu.Lock()
			drain = 0
			cl.cond.Broadcast()
			cl.mu.Unlock()
		})
		for cl.q.n > 0 && cl.conn != nil && drain > 0 {
			cl.cond.Wait()
		}
		wake.Stop()
	}
	n := cl.q.n
	for i := 0; i < cl.q.n && cl.q.at(i).hs; i++ {
		n--
	}
	if last != nil && cl.dead == nil && n > 0 {
		err = fmt.Errorf("%s: close discarded %d unacknowledged operations", cl.p.Name, n)
	}
	cl.hangUpLocked(cl.p.Closed)
	return err
}

// SocketCalls counts the socket Reads and Writes the client has issued.
func (cl *Client[A]) SocketCalls() (reads, writes uint64) { return cl.reads.Value(), cl.writes.Value() }

// Conn is the connection in use, nil while down.
func (cl *Client[A]) Conn() net.Conn {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.conn
}

// CountedReader counts in N the Reads issued on R: a socket's, so the
// count is its read system calls.
type CountedReader struct {
	R io.Reader
	N *obs.Counter
}

func (c CountedReader) Read(p []byte) (int, error) {
	c.N.Inc()
	return c.R.Read(p)
}

// fifo is the calls in flight, oldest first: a ring that doubles when
// full and is let go when it drains past fifoKeep slots.
type fifo[A any] struct {
	buf     []*Call[A]
	head, n int
}

const fifoKeep = 64

func (q *fifo[A]) at(i int) *Call[A] { return q.buf[(q.head+i)%len(q.buf)] }

func (q *fifo[A]) push(c *Call[A]) {
	q.grow()
	q.buf[(q.head+q.n)%len(q.buf)] = c
	q.n++
}

func (q *fifo[A]) pushFront(c *Call[A]) {
	q.grow()
	q.head = (q.head + len(q.buf) - 1) % len(q.buf)
	q.buf[q.head] = c
	q.n++
}

func (q *fifo[A]) pop() *Call[A] {
	c := q.buf[q.head]
	q.buf[q.head] = nil
	q.head, q.n = (q.head+1)%len(q.buf), q.n-1
	if q.n == 0 && len(q.buf) > fifoKeep {
		*q = fifo[A]{}
	}
	return c
}

func (q *fifo[A]) grow() {
	if q.n == len(q.buf) {
		buf := make([]*Call[A], max(8, 2*q.n))
		for i := range q.n {
			buf[i] = q.at(i)
		}
		q.buf, q.head = buf, 0
	}
}
