package netmem

import (
	"time"

	"atmostonce/internal/obs"
	"atmostonce/internal/wire"
)

// Metric families for the networked register service, registered into
// obs.Default at package init — so every binary linking netmem (the
// public atmostonce API blank-imports it) exposes the families from the
// first scrape, zero-valued until traffic flows. Per-op series are
// pre-resolved into arrays indexed by op code: the hot paths never
// touch the registry's name→series map.
//
// Naming follows DESIGN.md §10: amo_netmem_<name>_<unit>, split into
// client_* (NetMem) and server_* (Server) families. Byte counters
// measure whole frames (length prefix and header included), so they
// reconcile against OS-level socket accounting.

// netmemOps enumerates the request op codes and their label values.
var netmemOps = [...]struct {
	op   byte
	name string
}{
	{opHello, "hello"}, {opAcquire, "acquire"}, {opRenew, "renew"},
	{opRelease, "release"}, {opReadRange, "read_range"}, {opSync, "sync"},
	{opWriteAcked, "write_acked"},
}

var (
	cliReqs       [opWriteAcked + 1]*obs.Counter
	cliRPC        [opWriteAcked + 1]*obs.Histogram
	cliBytesOut   *obs.Counter
	cliBytesIn    *obs.Counter
	cliReconnects *obs.Counter
	cliFatal      *obs.Counter
	cliFenced     *obs.Counter

	srvConns      *obs.Gauge
	srvReqs       [opWriteAcked + 1]*obs.Counter
	srvBytesIn    *obs.Counter
	srvBytesOut   *obs.Counter
	srvAcquires   *obs.Counter
	srvRenews     *obs.Counter
	srvFencedRejs *obs.Counter
)

func init() {
	r := obs.Default
	for _, o := range netmemOps {
		cliReqs[o.op] = r.Counter("amo_netmem_client_requests_total",
			"Requests queued on the client connection, by op (pipelined writes included).",
			"op", o.name)
		cliRPC[o.op] = r.Histogram("amo_netmem_client_rpc_seconds",
			"Round-trip latency of awaited client ops (send to matched reply), by op.",
			1e-9, "op", o.name)
		srvReqs[o.op] = r.Counter("amo_netmem_server_requests_total",
			"Requests handled by the register server, by op.", "op", o.name)
	}
	cliBytesOut = r.Counter("amo_netmem_client_bytes_sent_total",
		"Frame bytes written by the client, headers included.")
	cliBytesIn = r.Counter("amo_netmem_client_bytes_received_total",
		"Frame bytes read by the client, headers included.")
	cliReconnects = r.Counter("amo_netmem_client_reconnects_total",
		"Successful reconnect handshakes (lease revalidated, pipeline resent).")
	cliFatal = r.Counter("amo_netmem_client_fatal_total",
		"Clients declared dead: fenced, redial budget exhausted, or protocol corruption.")
	cliFenced = r.Counter("amo_netmem_client_fenced_total",
		"Client deaths caused specifically by lease fencing (a newer writer took over).")
	srvConns = r.Gauge("amo_netmem_server_connections",
		"Client connections currently served.")
	srvBytesIn = r.Counter("amo_netmem_server_bytes_received_total",
		"Frame bytes read by the server, headers included.")
	srvBytesOut = r.Counter("amo_netmem_server_bytes_sent_total",
		"Frame bytes written by the server, headers included.")
	srvAcquires = r.Counter("amo_netmem_server_lease_acquires_total",
		"Writer-lease grants (each bumps a namespace epoch).")
	srvRenews = r.Counter("amo_netmem_server_lease_renews_total",
		"Successful lease renewals.")
	srvFencedRejs = r.Counter("amo_netmem_server_fenced_rejections_total",
		"Requests rejected with a fencing error (stale epoch after a successor's grant).")
}

// obsClientQueued accounts one request queued on the client connection.
func obsClientQueued(op byte, payloadLen int) {
	cliReqs[op].Inc()
	cliBytesOut.Add(wire.FrameBytes(payloadLen))
}

// obsClientRPC records one awaited op's round trip.
func obsClientRPC(op byte, d time.Duration) {
	if d < 0 {
		d = 0
	}
	cliRPC[op].Observe(uint64(d))
}

// obsServerReq accounts one inbound request frame on the server.
func obsServerReq(op byte, payloadLen int) {
	srvBytesIn.Add(wire.FrameBytes(payloadLen))
	if int(op) < len(srvReqs) && srvReqs[op] != nil {
		srvReqs[op].Inc()
	}
}
