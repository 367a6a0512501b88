//go:build linux

package main

import (
	"fmt"
	"time"
)

// The dispatcher shape is the same everywhere, jobd included.
const (
	shards       = 2
	workersShard = 2
	maxBatch     = 1024
	journalBatch = 16
)

// resubmitJobs is how much of the stream is sent again after a reopen to
// prove that no logged job runs twice.
const resubmitJobs = 1 << 16

// dispatcherWorkload is one of engine_stream, durable_mmap, durable_net:
// the same closed-loop stream over a different register backend.
type dispatcherWorkload struct {
	name    string
	durable bool
	// open makes the epoch's register backend and returns its spec, the
	// bytes it occupies (nil where that is not a file) and its teardown.
	open func(r *run) (spec string, bytes func() int64, closeFn func(), err error)
}

func (w *dispatcherWorkload) epoch(r *run, e int, traced bool) (*epochOut, error) {
	jobs, warm := r.count(w.name)
	total := uint64(warm + jobs)
	orc := newOracle(int(total))
	rec := r.recorder(traced, jobs)
	rec.arm(uint64(warm), total)
	st := newStreamer(orc, rec)

	// Set-up: NewDispatcher over the backend. The warm-up that follows is
	// not part of it: see README.md, "setup_s".
	var (
		cfg        dispatcherConfig
		d          *dispatcher
		storeBytes func() int64
	)
	setup, teardown, err := timedSetup(func() (int64, func(), error) {
		spec, bytes, closeBackend, err := w.open(r)
		if err != nil {
			return 0, nil, err
		}
		cfg = dispatcherConfig{Shards: shards, WorkersPerShard: workersShard, MaxBatch: maxBatch}
		if w.durable {
			cfg.Backend = spec
			cfg.JournalBatch = journalBatch
			cfg.MaxJobs = int(total) + 64*shards
		}
		t := now()
		if d, err = newDispatcher(cfg); err != nil {
			closeBackend()
			return 0, nil, fmt.Errorf("open dispatcher: %w", err)
		}
		ns := now() - t
		storeBytes = bytes
		// d is the epoch's current dispatcher: after the reopen below, the
		// reopened one.
		return ns, func() { d.Close(); closeBackend() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	if err := st.submit(d, 0, uint64(warm)); err != nil {
		return nil, err
	}

	// Timed window.
	stats0 := d.Stats()
	m0 := readMeter()
	if err := st.submit(d, uint64(warm), total); err != nil {
		return nil, err
	}
	m1 := readMeter()
	stats1 := d.Stats()

	out := &epochOut{s: sample{}, attempted: uint64(jobs)}
	s := out.s
	done := count(orc.done) - uint64(warm)
	lat := rec.between(stSubmit, stDone)
	window(out, m0, m1, done, traced, setup, lat)
	if traced {
		w.layers(s, out, rec, lat, stats0, stats1, m0, m1, done)
	}

	// Reopen: Close, New on the filled store, then part of the stream
	// again, which must resolve from the journal without running.
	if w.durable {
		filled := int64(0)
		if storeBytes != nil {
			filled = storeBytes()
		}
		t := now()
		if err := d.Close(); err != nil {
			return nil, fmt.Errorf("close dispatcher: %w", err)
		}
		if d, err = newDispatcher(cfg); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		recoverNS := now() - t
		orc.Seal()
		st.resubmit.Store(true)
		again := min(total/2, resubmitJobs)
		if err := st.submit(d, 0, again); err != nil {
			return nil, err
		}
		if got := st.recovered.Load(); got != again {
			orc.fail("after reopen %d of %d re-submitted jobs resolved from the journal", got, again)
		}
		if dup := d.Stats().Duplicates; dup != 0 {
			orc.fail("Stats().Duplicates = %d after reopen", dup)
		}
		if traced {
			s["dispatch.recover_ms"] = ms(recoverNS)
			s["dispatch.recover_scan_ms_per_mjob"] = ms(recoverNS) / (float64(total) / 1e6)
			if storeBytes != nil {
				s["membackend.store_bytes_per_job"] = float64(filled) / float64(total)
			}
		}
	}

	if dup := stats1.Duplicates; dup != 0 {
		orc.fail("Stats().Duplicates = %d", dup)
	}
	out.failed = st.failed.Load() + (uint64(jobs) - done)
	out.err = orc.Check()
	if traced {
		s["loadgen.fail_share"] = float64(out.failed) / float64(out.attempted)
		if err := r.writeSpans(rec, w.name, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layers fills the per-layer metrics a traced window yields.
func (w *dispatcherWorkload) layers(s sample, out *epochOut, rec *recorder, lat []int64,
	a, b dispatcherStats, m0, m1 *meter, jobs uint64) {
	n := float64(jobs)
	secs := float64(m1.wall-m0.wall) / 1e9
	s["dispatch.do_call_ns_p50"] = float64(pct(rec.between(stSubmit, stAck), 0.5))
	s["dispatch.submit_to_start_p50_us"] = us(pct(rec.between(stSubmit, stRun), 0.5))
	s["dispatch.start_to_done_p50_us"] = us(pct(rec.between(stRun, stDone), 0.5))
	s["dispatch.done_p90_us"] = us(pct(lat, 0.9))
	s["dispatch.done_p99_us"] = us(pct(lat, 0.99))
	label, pmax := deepest(lat)
	out.pmaxLabel = label
	s["dispatch.done_pmax_us"] = us(pmax)
	rounds := float64(b.Rounds - a.Rounds)
	residue := float64(b.Residue - a.Residue)
	performed := float64(b.Performed - a.Performed)
	s["dispatch.rounds_per_s"] = rounds / secs
	s["dispatch.round_size_mean"] = (performed + residue) / rounds
	s["dispatch.residue_share"] = residue / (performed + residue)
	s["dispatch.stolen_share"] = float64(b.StolenJobs-a.StolenJobs) / performed
	s["dispatch.work_per_job"] = float64(b.Work-a.Work) / performed
	s["dispatch.duplicates"] = float64(b.Duplicates)
	s["membackend.flushes_per_job"] = m1.delta(m0, "amo_membackend_syncs_total") / n
	if w.name == wNet {
		s["netmem.rpcs_per_job"] = m1.delta(m0, "amo_netmem_client_requests_total") / n
		s["netmem.bytes_per_job"] = (m1.delta(m0, "amo_netmem_client_bytes_sent_total") +
			m1.delta(m0, "amo_netmem_client_bytes_received_total")) / n
		s["netmem.reconnects"] = m1.delta(m0, "amo_netmem_client_reconnects_total")
	}
	bud := rec.stages()
	out.budget = &bud
	s["loadgen.budget_gap_share"] = bud.Gap
}

func openAtomic(*run) (string, func() int64, func(), error) {
	return "atomic", nil, func() {}, nil
}

func openMmap(r *run) (string, func() int64, func(), error) {
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("regs.shard%d", i)
	}
	st, err := newStore(r.tmp, names...)
	if err != nil {
		return "", nil, nil, err
	}
	return "mmap:" + st.path("regs"), st.bytes, st.Close, nil
}

func openNet(r *run) (string, func() int64, func(), error) {
	srv := newRegServer("atomic")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	return fmt.Sprintf("net:%s/bench", addr), nil, func() { srv.Close() }, nil
}

// metricsOverhead is obs.metrics_overhead_share: alternating untimed-setup
// slices of the engine stream with the dispatcher's metric registry on and
// off, 1 − on ÷ off.
func metricsOverhead(r *run) (float64, error) {
	jobs, _ := r.count(wEngine)
	jobs /= 2
	rec := idleRecorder()
	var on, off []float64
	for i := 0; i < 6; i++ {
		cfg := dispatcherConfig{Shards: shards, WorkersPerShard: workersShard, MaxBatch: maxBatch, Metrics: i%2 == 0}
		d, err := newDispatcher(cfg)
		if err != nil {
			return 0, err
		}
		orc := newOracle(jobs)
		st := newStreamer(orc, rec)
		t := time.Now()
		err = st.submit(d, 0, uint64(jobs))
		rate := float64(jobs) / time.Since(t).Seconds()
		d.Close()
		if err != nil {
			return 0, err
		}
		if err := orc.Check(); err != nil {
			return 0, err
		}
		if cfg.Metrics {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	return 1 - median(on)/median(off), nil
}
