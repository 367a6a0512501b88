package dispatch

import (
	"errors"
	"strconv"
	"time"

	"atmostonce/internal/obs"
	"atmostonce/internal/obs/opshttp"
)

// Metric threading. The dispatcher's hot paths never push into the
// registry: every per-shard counter and gauge is registered pull-style
// over state the engine already maintains (atomics, or the
// mu-guarded ShardStats the scrape reads under the same lock Stats
// takes — the one ordering that keeps QueueDepth consistent with the
// round counters). The only push-style instruments are the three
// histograms, each bounded by construction: the round-duration and
// round-loss histograms record once per ROUND, and the
// submit→completion histogram records only jobs sampled by id
// (latSampleMask, 1 in 16) — two atomic adds per sampled job.

// latSampleMask selects the jobs whose submit→completion latency is
// recorded: id & latSampleMask == 0, i.e. 1 in 16. Ids are assigned
// densely, so the sample is unbiased across shards and batches.
const latSampleMask = 0xf

// setupObs builds the dispatcher's registry, histograms and tracer.
// Called before the shards are built so the recovery scan can record
// into the registry.
func (d *Dispatcher) setupObs() {
	if !d.cfg.Metrics {
		d.tr = obs.NewTracer(d.cfg.TraceSampleRate, 0)
		return
	}
	reg := obs.NewRegistry()
	d.reg = reg
	d.roundHist = reg.Histogram("amo_dispatcher_round_duration_seconds",
		"Wall time of each shard round (cut, execute, resolve).", 1e-9)
	d.latHist = reg.Histogram("amo_dispatcher_submit_to_done_seconds",
		"Submit-to-resolution latency of sampled jobs (1 in 16 by id), requeues included.", 1e-9)
	d.lossHist = reg.Histogram("amo_dispatcher_round_loss_ppm",
		"Per-round effectiveness loss (1 - performed/batch) in parts per million; bucket 0 is a perfect round.", 1)
	reg.CounterFunc("amo_dispatcher_recovered_jobs_total",
		"Jobs resolved from a previous incarnation's journal without re-running.",
		func() uint64 { return d.recoveredN.Load() })
	reg.GaugeFunc("amo_dispatcher_pending_jobs",
		"Jobs submitted but not yet resolved (queued or in flight), summed over shards.",
		func() float64 {
			performed := d.sumPerformed()
			submitted := d.sumSubmitted()
			if submitted < performed {
				submitted = performed
			}
			return float64(submitted - performed)
		})
	d.recoveryHist = reg.Histogram("amo_membackend_recovery_scan_seconds",
		"Duration of the per-shard journal recovery scan at startup.", 1e-9)
	d.tr = obs.NewTracer(d.cfg.TraceSampleRate, 0)
}

// registerShardObs exposes one shard's counters. The performed atomic is
// read lock-free; the submitted count and everything living in
// ShardStats are read under s.mu, once per series: unlike Stats(), a
// scrape may pair a queue depth with counters read a moment later.
func (d *Dispatcher) registerShardObs(s *shard) {
	if d.reg == nil {
		return
	}
	sid := strconv.Itoa(s.id)
	stat := func(read func(*ShardStats) uint64) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			v := read(&s.stats)
			s.mu.Unlock()
			return v
		}
	}
	d.reg.CounterFunc("amo_dispatcher_submitted_jobs_total",
		"Jobs accepted into the shard (ids consumed).",
		stat(func(*ShardStats) uint64 { return s.submitted }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_performed_jobs_total",
		"Jobs resolved by the shard: executed, expired or recovered.",
		func() uint64 { return s.performed.Load() }, "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_rounds_total", "KKβ rounds executed.",
		stat(func(st *ShardStats) uint64 { return st.Rounds }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_residue_jobs_total",
		"Jobs carried to a later round as unperformed residue.",
		stat(func(st *ShardStats) uint64 { return st.Residue }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_stolen_jobs_total",
		"Jobs this shard claimed from sibling queues while idle.",
		stat(func(st *ShardStats) uint64 { return st.Stolen }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_expired_jobs_total",
		"Jobs resolved by deadline expiry at round assembly (payload never ran).",
		stat(func(st *ShardStats) uint64 { return st.Expired }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_cancelled_jobs_total",
		"Jobs resolved by submission-ctx cancellation at round assembly (payload never ran).",
		stat(func(st *ShardStats) uint64 { return st.Cancelled }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_crashes_total",
		"Injected worker crashes (workers revive next round).",
		stat(func(st *ShardStats) uint64 { return st.Crashes }), "shard", sid)
	d.reg.CounterFunc("amo_dispatcher_submit_blocked_nanoseconds_total",
		"Time submitters spent parked on this shard's full queue (Block policy backpressure).",
		stat(func(st *ShardStats) uint64 { return st.SubmitBlockedNanos }), "shard", sid)
	d.reg.GaugeFunc("amo_dispatcher_queue_depth",
		"Jobs resident in the shard queue at scrape time.",
		func() float64 {
			s.mu.Lock()
			v := s.q.len()
			s.mu.Unlock()
			return float64(v)
		}, "shard", sid)
	d.reg.GaugeFunc("amo_dispatcher_round_size",
		"Real jobs the adaptive controller cut into the shard's last round.",
		func() float64 { return float64(s.lastTakenA.Load()) }, "shard", sid)
	if s.durable {
		d.reg.CounterFunc("amo_membackend_journal_writes_total",
			"Journal rows appended (record-then-do) by the shard's workers.",
			func() uint64 { return s.journaled.Load() }, "shard", sid)
	}
}

// startOps binds the ops HTTP endpoint when MetricsAddr is set. The
// endpoint serves this dispatcher's registry alongside the process
// default (netmem, membackend).
func (d *Dispatcher) startOps() error {
	if d.cfg.MetricsAddr == "" {
		return nil
	}
	srv, err := opshttp.Serve(d.cfg.MetricsAddr, opshttp.Options{
		Registries: []*obs.Registry{d.reg, obs.Default},
		Statsz:     func() any { return d.Stats() },
		Tracer:     d.tr,
		Healthz: func() error {
			if d.closed() {
				return errors.New("dispatcher closed")
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	d.ops = srv
	return nil
}

// OpsAddr returns the bound address of the ops endpoint ("" when
// Config.MetricsAddr is unset). With a ":0" config it carries the
// kernel-chosen port.
func (d *Dispatcher) OpsAddr() string {
	if d.ops == nil {
		return ""
	}
	return d.ops.Addr()
}

// Registry returns the dispatcher's metric registry (nil unless
// Config.Metrics — or one of the options implying it — is set).
func (d *Dispatcher) Registry() *obs.Registry { return d.reg }

// Tracer returns the dispatcher's job tracer (nil unless
// Config.TraceSampleRate > 0).
func (d *Dispatcher) Tracer() *obs.Tracer { return d.tr }

// LatencyQuantiles reads quantiles (each in [0,1]) off the sampled
// submit→completion latency histogram — the very histogram /metrics
// exposes. ok is false when metrics are disabled or nothing has been
// sampled yet.
func (d *Dispatcher) LatencyQuantiles(qs ...float64) ([]time.Duration, bool) {
	if d.latHist == nil {
		return nil, false
	}
	snap := d.latHist.Snapshot()
	if snap.Count == 0 {
		return nil, false
	}
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = time.Duration(snap.Quantile(q))
	}
	return out, true
}

// traceExpired records Expired (or Cancelled) events for a batch of
// round-assembly casualties (resolved outside the shard lock).
func (s *shard) traceExpired(rs []resolved) {
	tr := s.d.tr
	if tr == nil {
		return
	}
	for i := range rs {
		ev := obs.TraceExpired
		if rs[i].r.Cancelled {
			ev = obs.TraceCancelled
		}
		tr.Record(rs[i].r.ID, ev, s.id)
	}
}
