package jobd

import (
	"atmostonce/internal/obs"
	"atmostonce/internal/wire"
)

// Metric families for the job service, registered into obs.Default at
// package init (the PR 7 convention, mirroring internal/netmem): every
// binary linking jobd exposes the amo_jobd_* families from the first
// scrape, zero-valued until traffic flows. Labels are enumerable —
// op codes, admission results, completion statuses — never tenant
// names or task names, which are client-controlled and would make the
// registry grow without bound.
//
// Per-op and per-status series are pre-resolved into arrays at init so
// the conn readers and the core loop never touch the registry's
// name→series map.

// jobdOps enumerates the request op codes and their label values.
var jobdOps = [...]struct {
	op   byte
	name string
}{
	{jopHello, "hello"}, {jopSubmit, "submit"}, {jopSubscribe, "subscribe"},
	{jopUnsubscribe, "unsubscribe"}, {jopStats, "stats"}, {jopPing, "ping"},
}

// Admission results for amo_jobd_submits_total.
const (
	admAccepted = iota
	admQuota
	admCapacity
	admUnknownTask
	admUnknownTenant
	admClosed
	admTooBig
	admCount
)

var admNames = [admCount]string{
	"accepted", "quota", "capacity", "unknown_task", "unknown_tenant", "closed", "too_big",
}

var evNames = [evCancelled + 1]string{
	"ok", "error", "expired", "recovered", "cancelled",
}

var (
	jdConns      *obs.Gauge
	jdConnsTot   *obs.Counter
	jdReqs       [jopPing + 1]*obs.Counter
	jdSubmits    [admCount]*obs.Counter
	jdDone       [evCancelled + 1]*obs.Counter
	jdEvStream   *obs.Counter
	jdEvDropped  *obs.Counter
	jdReplayed   *obs.Counter
	jdReexec     *obs.Counter
	jdBytesIn    *obs.Counter
	jdBytesOut   *obs.Counter
	jdConnReads  *obs.Counter
	jdConnWrites *obs.Counter
	jdTicks      *obs.Counter
	jdTickReqs   *obs.Histogram
	jdInboxWaits *obs.Counter
)

func init() {
	r := obs.Default
	jdConns = r.Gauge("amo_jobd_connections",
		"Client connections currently served by the job server.")
	jdConnsTot = r.Counter("amo_jobd_connections_total",
		"Client connections accepted by the job server over its lifetime.")
	for _, o := range jobdOps {
		jdReqs[o.op] = r.Counter("amo_jobd_requests_total",
			"Requests handled by the job server, by op.", "op", o.name)
	}
	for i, n := range admNames {
		jdSubmits[i] = r.Counter("amo_jobd_submits_total",
			"Submit admission decisions, by result. Every non-accepted result burned no job id.",
			"result", n)
	}
	for i, n := range evNames {
		jdDone[i] = r.Counter("amo_jobd_completions_total",
			"Job completions (the dispatcher's exactly-once Runner.Resolved), by status.",
			"status", n)
	}
	jdEvStream = r.Counter("amo_jobd_events_streamed_total",
		"Completion events delivered to subscribed connections.")
	jdEvDropped = r.Counter("amo_jobd_events_dropped_total",
		"Completion events dropped because a subscriber's outbound queue was full.")
	jdReplayed = r.Counter("amo_jobd_replayed_descriptors_total",
		"Descriptors re-submitted from the descriptor log at server open.")
	jdReexec = r.Counter("amo_jobd_reexecuted_jobs_total",
		"Replayed descriptors whose payloads actually ran again (admitted but unperformed at the previous death).")
	jdBytesIn = r.Counter("amo_jobd_server_bytes_received_total",
		"Frame bytes read by the job server, headers included.")
	jdBytesOut = r.Counter("amo_jobd_server_bytes_sent_total",
		"Frame bytes written by the job server, headers included.")
	jdConnReads = r.Counter("amo_jobd_conn_reads_total",
		"Read calls the job server's connection readers issued on their sockets.")
	jdConnWrites = r.Counter("amo_jobd_conn_writes_total",
		"Write calls the job server's connection writers issued on their sockets.")
	jdTicks = r.Counter("amo_jobd_ticks_total",
		"Ticks of the core loop: one log commit, one batch submit and one writer wake-up per connection each.")
	jdTickReqs = r.Histogram("amo_jobd_tick_requests",
		"Requests drained per core-loop tick (0 = a tick of completions only).", 1)
	jdInboxWaits = r.Counter("amo_jobd_inbox_waits_total",
		"Times a connection reader waited for room in the core loop's full inbox.")
}

// obsReq accounts one inbound request frame.
func obsReq(op byte, payloadLen int) {
	jdBytesIn.Add(wire.FrameBytes(payloadLen))
	if int(op) < len(jdReqs) && jdReqs[op] != nil {
		jdReqs[op].Inc()
	}
}

// obsDone accounts one completion by event status.
func obsDone(status byte) {
	if int(status) < len(jdDone) {
		jdDone[status].Inc()
	}
}
