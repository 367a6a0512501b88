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
//     mmap — any registry spec) and serves cell reads, pipelined writes,
//     acked batch writes, range reads and Sync over a compact
//     length-prefixed binary protocol on TCP. Requests on a connection
//     are processed strictly in order, which is what makes client-side
//     pipelining sound.
//   - NetMem: the client backend, registered in the membackend registry
//     as "net:HOST:PORT[/NAMESPACE][?options]". Writes are pipelined
//     (sent without waiting for the ack); Read, WriteAcked, ReadRange
//     and Sync wait for their reply; a broken connection is redialed and
//     every unacknowledged operation is resent in order, so callers
//     never observe the reconnect. cmd/amo-regd is the server binary.
//   - Arbitration: the server grants a single writer lease per
//     namespace, identified by a monotonically increasing epoch. Every
//     mutating request carries the writer's epoch and is rejected with
//     ErrFenced once a newer writer has been granted the lease, so a
//     paused or partitioned dispatcher can never scribble on registers
//     its successor has taken over (the fencing-token discipline of the
//     leader-election literature; cf. the Omega failure-detector paper).
//
// See DESIGN.md §8 for the wire protocol, the lease state machine and
// the crash-window analysis of network writes.
package netmem

// Op table. Framing and field encoding are internal/wire's (one frame
// per message, both directions: length, op, client-chosen seq echoed in
// the reply, payload consumed exactly). The server replies to every
// request, in request order, on the same connection.
const (
	// Client → server.
	opHello     byte = 1 // ns string, size u64          → opHelloOK
	opAcquire   byte = 2 // clientID u64, ttlMs u64, wait u8 → opAcquireOK
	opRenew     byte = 3 // epoch u64                    → opAck
	opRelease   byte = 4 // epoch u64                    → opAck
	opRead      byte = 5 // addr u64                     → opValue
	opWrite     byte = 6 // epoch u64, addr u64, val i64 → opAck; only ever pipelined (Write)
	opReadRange byte = 7 // addr u64, count u32          → opValues
	// 8, 9, 11 and 12 stay reserved (they were opFill, opCAS, opJournal
	// and opJournalBatch, which nothing sends any more): the server
	// answers them "unknown op" — an old peer fails loudly at its first
	// journal write — and no new op takes their numbers.
	opSync byte = 10 // (empty)                      → opAck
	// opWriteAcked is the one awaited write: vals land in the contiguous
	// cells starting at addr (count ≥ 1, implied by frame length). The
	// whole batch is admitted or fenced atomically — a stale epoch
	// rejects every cell, never some of them — which is what lets the
	// group-commit dispatcher journal k claims in one round trip. (Until
	// amo-dispatch-v5 a flags byte followed addr; a peer that still
	// sends or expects it gets "malformed request payload" at its first
	// acked write.)
	opWriteAcked byte = 13 // epoch u64, addr u64, val i64 × count → opAck

	// Server → client.
	opAck       byte = 16 // (empty)
	opValue     byte = 17 // val i64
	opValues    byte = 18 // val i64 × count (count implied by frame length)
	opHelloOK   byte = 20 // reopened u8
	opAcquireOK byte = 21 // epoch u64, ttlMs u64 (effective, after clamping)
	opErr       byte = 31 // code u16, msg string
)

// Error codes carried by opErr frames.
const (
	codeProto        uint16 = 1 // malformed frame or op sequence
	codeBadNamespace uint16 = 2 // namespace name rejected
	codeNoNamespace  uint16 = 3 // data op before opHello
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
	// maxCells bounds a namespace's register count (2^30 cells = 8 GiB —
	// a sanity bound against corrupt hellos, not a product limit).
	maxCells = 1 << 30
)
