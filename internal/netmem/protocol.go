// Package netmem is the networked register service: it emulates the
// paper's shared memory — an array of atomic int64 read/write registers
// — over message passing, so dispatcher shards can live in different
// processes and on different machines while the algorithms above the
// shmem.Mem seam stay untouched. This is the classical shared-memory ⇄
// message-passing bridge (cf. Oh-RAM! and the ABD lineage), specialized
// to the single-writer topology the streaming dispatcher already has:
// one register set, one live writer, any number of observers.
//
// The package has three parts:
//
//   - Server: owns one membackend.Backend per namespace (atomic, durable
//     mmap — any registry spec) and serves range reads, acked range
//     writes and Sync over a compact length-prefixed binary protocol on
//     TCP. Requests on a connection are processed strictly in order,
//     which is what makes client-side pipelining sound.
//   - NetMem: the client backend, one namespace of a session — one
//     connection that attaches any number of namespaces — registered in
//     the membackend registry as "net:HOST:PORT[/NAMESPACE][?options]".
//     Its opener puts an instance suffix on the namespace, so the
//     dispatcher's shards (membackend.OpenEach) take NAMESPACE.shard<i>,
//     all over one session. Each namespace's hello (protocol v3: ns,
//     size, stamp) carries the stamp a namespace it creates gets in cell
//     0, and its reply the reopened flag, the handle and cell 0, so a
//     stamped store opens in the session's one flight.
//     A Read is a one-cell range read and a Write a one-cell acked
//     write, pipelined (sent without waiting for the ack); Read,
//     WriteAcked, ReadRange and Sync wait for their reply; a broken
//     connection is redialed and every unacknowledged operation is
//     resent in order, so callers never observe the reconnect.
//     cmd/amo-regd is the server binary.
//   - Arbitration: the server grants a single writer lease per
//     namespace, identified by a monotonically increasing epoch. Every
//     mutating request carries the writer's epoch and is rejected with
//     ErrFenced unless its connection was granted (or renewed) that
//     epoch and no newer writer has been granted the lease since, so a
//     paused or partitioned dispatcher can never scribble on registers
//     its successor has taken over (the fencing-token discipline of the
//     leader-election literature; cf. the Omega failure-detector paper).
//
// See DESIGN.md §8 for the wire protocol, the lease state machine and
// the crash-window analysis of network writes.
package netmem

// Op table, protocol v3. Framing and field encoding are internal/wire's
// (one frame per message, both directions: length, op, client-chosen seq
// echoed in the reply, payload consumed exactly). The server replies to
// every request, in request order, on the same connection.
//
// A connection is a session: each hello attaches one namespace and
// returns its handle, the hello's position among the connection's hellos
// (a refused hello keeps its position, so a client that sends n hellos
// and n lease ops in one flight knows every handle before any reply).
// Every other request names its namespace by that handle, h, its first
// payload byte. A hello carries the stamp a namespace it creates gets in
// cell 0 (0: none), and its reply what cell 0 holds, so a client opens a
// stamped store in the hello's one flight. A v2 hello, a stamp short, is
// answered codeProto, and a v2 reply, a cell 0 short, fails the client's
// open.
const (
	// Client → server.
	opHello     byte = 1 // ns string, size u64, stamp i64              → opHelloOK
	opAcquire   byte = 2 // h u8, clientID u64, ttlMs u64, wait u8      → opAcquireOK
	opRenew     byte = 3 // h u8, clientID u64, epoch u64               → opAck
	opRelease   byte = 4 // h u8, epoch u64                             → opAck
	opReadRange byte = 7 // h u8, addr u64, count u32                   → opValues
	// 5, 6, 8, 9, 11 and 12 stay reserved, and so does the reply 17
	// (ops of older peers, which nothing here sends any more): the server
	// answers them "unknown op" — an old peer fails loudly at its first
	// such frame — and no new op takes their numbers.
	opSync byte = 10 // h u8                                         → opAck
	// opWriteAcked is the one write: vals land in the contiguous cells
	// starting at addr (count ≥ 1, implied by frame length). The whole
	// batch is admitted or fenced atomically — a stale epoch rejects
	// every cell, never some of them — which is what lets the
	// group-commit dispatcher journal k claims in one round trip.
	opWriteAcked byte = 13 // h u8, epoch u64, addr u64, val i64 × count → opAck

	// Server → client.
	opAck       byte = 16 // (empty)
	opValues    byte = 18 // val i64 × count (count implied by frame length)
	opHelloOK   byte = 20 // reopened u8, h u8, cell0 i64
	opAcquireOK byte = 21 // epoch u64, ttlMs u64 (effective, after clamping)
	opErr       byte = 31 // code u16, msg string
)

// Error codes carried by opErr frames.
const (
	codeProto        uint16 = 1 // malformed frame or op sequence
	codeBadNamespace uint16 = 2 // namespace name rejected
	codeNoNamespace  uint16 = 3 // handle no hello attached
	codeBadAddr      uint16 = 4 // cell address or range out of bounds
	codeFenced       uint16 = 5 // stale epoch: a newer writer holds the lease
	codeLeaseHeld    uint16 = 6 // fail-fast acquire lost to a live lease
	codeBackend      uint16 = 7 // backend open/sync failure
	codeSizeMismatch uint16 = 8 // hello size differs from the open namespace
	codeClosed       uint16 = 9 // server shutting down
)

const (
	// maxRange bounds the cells of one opReadRange or opWriteAcked,
	// keeping frames under wire.MaxFrame. Clients chunk larger ranges.
	maxRange = 1 << 16
	// maxHandles bounds the namespaces one session attaches: a handle is
	// one byte.
	maxHandles = 1 << 8
	// maxCells bounds a namespace's register count (2^30 cells = 8 GiB —
	// a sanity bound against corrupt hellos, not a product limit).
	maxCells = 1 << 30
)
