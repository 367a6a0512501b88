package jobd

import (
	"net"
	"sync"

	"atmostonce/internal/dispatch"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
	"atmostonce/internal/wire"
)

// conn is one server-side client connection: a reader goroutine that
// parses frames and routes typed requests into the core loop, and a
// writer goroutine that drains the outbound queue. Neither goroutine
// touches server state — the voxelcraft boundary.
//
// The outbound queue is a byte buffer, not a queue of frame objects:
// producers (the core loop's ticks; the reader for hello and protocol
// errors) encode each frame straight onto its tail under outMu, and the
// writer swaps the whole buffer for its drained spare and hands it to
// the socket in one Write per wake-up — and is woken once per batch of
// frames, not per frame: a tick wakes each connection it queued anything
// for at its end. Frames reach the wire in append order, which is what
// keeps replies in request order.
//
// The queue is bounded by frames appended and not yet taken by the
// writer. A reply that would overflow it means the client pipelined
// thousands of requests and stopped reading — the connection is cut
// (losing a reply breaks the in-order pipelining contract, so the
// stream is unrecoverable anyway). An EVENT that would overflow it is
// dropped and counted: completion streaming is best-effort per
// subscriber, and a slow subscriber must not be able to wedge the core
// loop or other tenants.
const connOutDepth = 4096

// bufKeep is the largest outbound buffer a server connection holds on
// to between bursts; one a backlog or a big payload grew past it is left
// to the collector once written, so buffers are sized by connection,
// not by the worst burst it ever saw.
const bufKeep = 64 << 10

// readChunk is the size of a server-side read chunk (see wire.FrameReader):
// one allocation per about 430 of the benchmark's 75-byte submit frames,
// and the unit a pending job pins. jobSlab is how many jobs a reader carves
// out of one allocation.
const (
	readChunk = 32 << 10
	jobSlab   = 64
)

type conn struct {
	s    *Server
	nc   net.Conn
	done chan struct{}
	once sync.Once

	outMu  sync.Mutex
	out    []byte        // encoded frames the writer has not taken yet
	outN   int           // frames in out
	bye    bool          // reader → writer: write what is queued, then hang up
	outRdy chan struct{} // 1-buffered wake-up for the writer

	// names memoises the tenant and task names this connection submits
	// under. Reader-goroutine-owned.
	names wire.Interner

	// tenants is this connection's subscription set. Core-loop-owned:
	// only subscribe/unsubscribe/connGone handling reads or writes it.
	tenants map[string]struct{}
	// dirty: the running tick owes the writer a wake-up. Core-loop-owned.
	dirty bool
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:       s,
		nc:      nc,
		done:    make(chan struct{}),
		outRdy:  make(chan struct{}, 1),
		tenants: make(map[string]struct{}),
	}
}

// close hangs up, waking the reader if it waits for room in the inbox.
// Idempotent; safe from any goroutine not holding the inbox lock.
func (c *conn) close() {
	c.once.Do(func() {
		close(c.done)
		c.nc.Close()
		c.s.inMu.Lock()
		c.s.room.Broadcast()
		c.s.inMu.Unlock()
	})
}

// enqueue encodes one frame onto the outbound queue, or reports false,
// appending nothing, when it is full. The caller wakes the writer, once.
func (c *conn) enqueue(op byte, seq uint32, payload []byte) bool {
	c.outMu.Lock()
	if c.outN >= connOutDepth {
		c.outMu.Unlock()
		return false
	}
	c.out = append(wire.AppendHeader(c.out, op, seq, len(payload)), payload...)
	c.outN++
	c.outMu.Unlock()
	return true
}

func (c *conn) wake() {
	select {
	case c.outRdy <- struct{}{}:
	default: // a wake-up is already pending; the writer will see this frame too
	}
}

// sendReply queues a reply frame. Overflow cuts the connection (see the
// connOutDepth comment).
func (c *conn) sendReply(op byte, seq uint32, payload []byte) {
	if !c.enqueue(op, seq, payload) {
		eventlog.Logger().Warn("jobd_conn_reply_overflow", "remote", c.nc.RemoteAddr().String())
		c.close()
	}
}

// sendErr queues a jopErr reply.
func (c *conn) sendErr(seq uint32, code uint16, msg string) {
	var scratch [128]byte // most messages fit; append grows past it when not
	c.sendReply(jopErr, seq, wire.AppendStr(wire.AppendU16(scratch[:0], code), msg))
}

// writeLoop drains the outbound queue: each wake-up it takes everything
// queued in one swap and writes it with one call, so a burst of replies
// and events costs one syscall, not one per frame.
func (c *conn) writeLoop() {
	defer c.s.connWG.Done()
	defer c.close()
	var spare []byte
	for {
		c.outMu.Lock()
		buf, bye := c.out, c.bye
		c.out, c.outN = spare[:0], 0
		c.outMu.Unlock()
		if len(buf) == 0 {
			if bye {
				// The reader said goodbye (fatal protocol error) and
				// everything queued before the flag is written, so hang
				// up from the writing side — closing from the reader
				// would race the error frame onto a dead socket.
				return
			}
			spare = buf
			select {
			case <-c.outRdy:
			case <-c.done:
				return
			}
			continue
		}
		jdConnWrites.Inc()
		if _, err := c.nc.Write(buf); err != nil {
			return
		}
		jdBytesOut.Add(uint64(len(buf)))
		if cap(buf) > bufKeep {
			buf = nil
		}
		spare = buf
	}
}

// sayBye asks the writer to write what is queued and hang up. Called by
// the reader on fatal protocol errors, AFTER queueing the error reply.
func (c *conn) sayBye() {
	c.outMu.Lock()
	c.bye = true
	c.outMu.Unlock()
	c.wake()
}

// readLoop parses frames and routes them. The first frame must be a
// hello with a matching protocol version; everything after flows
// through the core loop so per-connection reply order equals request
// order.
//
// Buffer ownership: a frame is parsed in the read chunk it landed in
// (wire.FrameReader) and its payload dies at the next frame — except a
// submit's, which is Kept: the job's payload IS those bytes of the chunk,
// cap-clipped, through the log, the worker and the TaskFunc, and the chunk
// lives until Server.complete has dropped the last payload pointing into
// it. The *job comes out of this reader's slab, jobSlab to an allocation;
// its task is looked up here, off the core loop. Tenant and task names come
// out of c.names (copies, shared between requests that repeat a name), and
// everything else is a scalar.
func (c *conn) readLoop() {
	defer c.s.connWG.Done()
	// fatal queues an error reply and hands the hangup to the writer so
	// the reply actually reaches the wire before the socket dies.
	fatal := func(seq uint32, code uint16, msg string) {
		c.sendErr(seq, code, msg)
		c.sayBye()
	}
	fr := wire.NewFrameReader(wire.CountedReader{R: c.nc, N: jdConnReads}, readChunk)
	var slab []job
	helloed := false
	for {
		op, seq, payload, err := fr.Next()
		if err != nil {
			c.close() // transport-level: nothing left to flush to
			return
		}
		obsReq(op, len(payload))
		dec := wire.Decoder{B: payload}
		if !helloed {
			if op != jopHello {
				fatal(seq, codeProto, "first frame must be hello")
				return
			}
			proto := dec.U32()
			dec.Str() // client name: accepted for logs, unused otherwise
			if err := dec.Done(); err != nil {
				fatal(seq, codeProto, err.Error())
				return
			}
			if proto != protoVersion {
				fatal(seq, codeProto, "protocol version mismatch")
				return
			}
			p := wire.AppendU32(nil, protoVersion)
			p = wire.AppendStr(p, obs.IncarnationString())
			c.sendReply(jopHelloOK, seq, p)
			c.wake()
			helloed = true
			continue
		}
		req := coreReq{op: op, c: c, seq: seq}
		switch op {
		case jopSubmit:
			if len(slab) == 0 {
				slab = make([]job, jobSlab)
			}
			j := &slab[0]
			slab = slab[1:]
			j.s = c.s
			if err := j.decode(payload, &c.names, false); err != nil {
				fatal(seq, codeProto, err.Error())
				return
			}
			fr.Keep()
			if p := dispatch.Priority(j.pri); !(p == dispatch.Normal || p == dispatch.High || p == dispatch.Low) {
				fatal(seq, codeProto, "unknown priority")
				return
			}
			j.fn = c.s.reg.lookup(j.task, j.version)
			req.j = j
		case jopSubscribe, jopUnsubscribe:
			req.tenant = dec.StrIn(&c.names)
			if err := dec.Done(); err != nil {
				fatal(seq, codeProto, err.Error())
				return
			}
		case jopStats, jopPing:
			if len(payload) != 0 {
				fatal(seq, codeProto, "unexpected payload")
				return
			}
		case jopHello:
			fatal(seq, codeProto, "duplicate hello")
			return
		default:
			fatal(seq, codeProto, "unknown op")
			return
		}
		if !c.s.post(req, true) {
			return
		}
	}
}
