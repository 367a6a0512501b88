// Package jobd is the multi-tenant networked job service over the
// at-most-once engine: clients submit NAMED, REGISTERED task types over
// a compact length-prefixed binary TCP protocol, and the server runs
// them through a dispatch.Dispatcher with the full at-most-once,
// durability and observability stack underneath.
//
// The package has four parts:
//
//   - Registry: name+version → func(ctx, payload) — the task types a
//     server instance knows how to run. A submission names a task; the
//     payload bytes travel through the wire, the descriptor log and the
//     worker unchanged. Because descriptors are serializable, durable
//     recovery can RE-RUN work after a process death, not merely skip
//     what already ran.
//   - Server: accepts connections, enforces per-tenant admission quotas,
//     logs admitted descriptors, submits them to the dispatcher, and
//     streams completion events to subscribed clients. The architecture
//     is the voxelcraft discipline: network goroutines only enqueue and
//     dequeue; ONE authoritative core loop owns every piece of mutable
//     jobd state and runs it in TICKS — whatever has arrived is decided
//     in arrival order, logged in one commit, submitted in one batch and
//     answered in one pass. The core loop is the dispatcher's only
//     submitter and submits only contiguous id ranges, so a job's id is
//     its ordinal in the descriptor log. That is what turns the log into
//     a recovery mechanism: replaying it re-submits the identical id
//     stream, the dispatcher's journal dedupes everything a previous
//     incarnation performed, and the remainder re-executes exactly once
//     (see desclog.go). On a volatile backend (membackend.Volatile: the
//     default) no incarnation can follow, so there is no log and no
//     journal to write; everything else is the same.
//   - Client: a pipelined client with auto-redial. In-flight submits
//     FAIL on a connection drop instead of being resent: an unacked
//     submit may or may not have been admitted, and blind resend would
//     re-admit it under a fresh id — the one thing an at-most-once
//     front door must never do. Completion subscriptions survive the
//     redial.
//   - Load: the load-generator harness behind `amo-jobd -load` and the
//     many-connection soak.
//
// See DESIGN.md §15 for the wire format, the tenant/quota model and the
// descriptor-journaling crash-window analysis.
package jobd

// Op table. Framing and field encoding are internal/wire's, shared with
// internal/netmem (§8): one frame per message, both directions — length,
// op, client-chosen seq echoed in the reply, payload consumed exactly.
// The server replies to every request IN REQUEST ORDER on the same
// connection (every request is routed through the core loop, whose
// ticks reply in arrival order), which is what makes client-side
// pipelining sound. Completion events are unsolicited server→client
// frames with seq 0, interleaved between replies; clients dispatch on
// the op code.
const (
	// Client → server.
	jopHello       byte = 1 // proto u32, client string           → jopHelloOK
	jopSubmit      byte = 2 // tenant str, task str, ver u32, pri i8, deadline i64 (unix ns, 0 = none), payload u32+bytes → jopSubmitOK
	jopSubscribe   byte = 3 // tenant str                         → jopAck; events flow until unsubscribe or close
	jopUnsubscribe byte = 4 // tenant str                         → jopAck
	jopStats       byte = 5 // (empty)                            → jopStatsOK
	jopPing        byte = 6 // (empty)                            → jopAck

	// Server → client.
	jopAck      byte = 16 // (empty)
	jopHelloOK  byte = 17 // proto u32, incarnation str (the server process's obs incarnation, for cross-process stitching)
	jopSubmitOK byte = 18 // id u64 — the job's dispatcher-wide id
	jopStatsOK  byte = 19 // JSON document (rest of frame)
	jopEvent    byte = 20 // seq 0: tenant str, id u64, status u8, task str, errmsg str
	jopErr      byte = 31 // code u16, msg string
)

// protoVersion is the wire protocol revision carried in hello frames; a
// server rejects hellos from a different revision so incompatibilities
// fail loudly at connect time instead of as frame soup later.
const protoVersion uint32 = 1

// Completion-event statuses (jopEvent status byte). They mirror the
// dispatcher's JobResult: exactly one event is emitted per admitted job
// — completion resolution is exactly-once because it is driven by the
// dispatcher's exactly-once Runner.Resolved.
const (
	evOK        byte = 0 // payload ran, returned nil
	evError     byte = 1 // payload ran, returned an error (errmsg carries it)
	evExpired   byte = 2 // deadline passed before the round was assembled; never ran
	evRecovered byte = 3 // deduped against a previous incarnation's journal; did not run again
	evCancelled byte = 4 // submission ctx dead at round assembly; never ran
)

// Error codes carried by jopErr frames.
const (
	codeProto       uint16 = 1 // malformed frame, bad op sequence, or protocol-version mismatch
	codeUnknownTask uint16 = 2 // task name+version not in the server's registry
	codeQuota       uint16 = 3 // tenant at MaxPending, or High quota exhausted
	codeCapacity    uint16 = 4 // server at MaxJobs or descriptor log full
	codeClosed      uint16 = 5 // server shutting down
	codeTenant      uint16 = 6 // unknown tenant (no configured limits, no default)
	codeTooBig      uint16 = 7 // payload exceeds MaxPayload
)
