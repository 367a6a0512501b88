//go:build linux

package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Probes time direct calls into one layer's public functions. They run
// once per traced run, after the epochs, on the workloads whose
// end-to-end metrics the layer is predicted to move (see README.md).
// iters scales every loop; -smoke shrinks it.

// timeN runs fn n times and returns nanoseconds per call.
func timeN(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// eachNS runs fn n times and returns every call's duration, sorted.
func eachNS(n int, fn func(i int)) []int64 {
	d := make([]int64, n)
	for i := range d {
		t := now()
		fn(i)
		d[i] = now() - t
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// iters is a probe's loop count: n, or a hundredth of it under -smoke.
func (r *run) iters(n int) int {
	if r.smoke {
		return max(n/100, 8)
	}
	return n
}

// engineProbes: denseset, conc rounds, the atomic backend, obs.
func engineProbes(r *run) (sample, error) {
	s := sample{}
	const universe = 1024

	free := newDenseSet(1, universe)
	s["denseset.reset_drain_ns_per_key"] = timeN(r.iters(2000), func(int) {
		free.ResetRange(1, universe)
		for k := 1; k <= universe; k++ {
			free.Delete(k)
		}
	}) / universe
	free.ResetRange(1, universe)
	try := newDenseSet(1, 0)
	for k := 64; k <= universe; k += 64 { // a few announced jobs, as in a round
		try.Insert(k)
	}
	avail := universe - universe/64
	sink := 0
	s["denseset.select_excluding_ns"] = timeN(r.iters(2_000_000), func(i int) {
		v, _ := free.SelectExcluding(try, i%avail+1)
		sink += v
	})

	pool, err := newRoundPool(workersShard, universe)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var ran [universe + 1]uint32
	fn := func(_, job int) { ran[job]++ }
	var roundErr error
	residue := 0
	round := func(k int) func(int) {
		return func(int) {
			res, err := pool.RunRound(k, fn, nil)
			if err != nil {
				roundErr = err
				return
			}
			if res.Duplicates != 0 {
				roundErr = fmt.Errorf("conc round of %d: %d duplicates", k, res.Duplicates)
			}
			residue += len(res.Unperformed)
		}
	}
	s["conc.round_us_k256"] = us(pct(eachNS(r.iters(2000), round(256)), 0.5))
	residue = 0
	n := r.iters(2000)
	s["conc.round_us_k1024"] = us(pct(eachNS(n, round(universe)), 0.5))
	s["conc.round_residue_jobs"] = float64(residue) / float64(n)
	if roundErr != nil {
		return nil, roundErr
	}

	mem, err := openBackend("atomic", 4096)
	if err != nil {
		return nil, err
	}
	s["membackend.atomic_rw_ns"] = rwNS(mem, r.iters(4_000_000))
	mem.Close()

	h := metricsRoot.Histogram("amo_bench_probe_seconds", "Benchmark probe of Histogram.Observe.", 1e-9)
	s["obs.hist_observe_ns"] = timeN(r.iters(4_000_000), func(i int) { h.Observe(uint64(i)) })
	s["obs.scrape_ms"] = ms(pct(eachNS(r.iters(200), func(int) { metricsRoot.WritePrometheus(io.Discard) }), 0.5))
	share, err := metricsOverhead(r)
	if err != nil {
		return nil, err
	}
	s["obs.metrics_overhead_share"] = share
	_ = sink
	return s, nil
}

// rwNS is one Write and one Read of a cell, nanoseconds per pair.
func rwNS(b backend, n int) float64 {
	var sum int64
	ns := timeN(n, func(i int) {
		b.Write(i&4095, int64(i))
		sum += b.Read(i & 4095)
	})
	_ = sum
	return ns
}

// mmapProbes: Open, Read/Write, Sync, Close and reopen of one register
// file the size of a shard's.
func mmapProbes(r *run) (sample, error) {
	s := sample{}
	const cells = 1 << 20
	var openNS, reopenNS, syncNS []float64
	var rw float64
	for i := 0; i < 5; i++ {
		st, err := newStore(r.tmp, "probe")
		if err != nil {
			return nil, err
		}
		t := now()
		b, err := openBackend("mmap:"+st.path("probe"), cells)
		if err != nil {
			st.Close()
			return nil, err
		}
		openNS = append(openNS, float64(now()-t))
		rw = rwNS(b, r.iters(2_000_000))
		syncNS = append(syncNS, float64(pct(eachNS(r.iters(500), func(i int) {
			b.Write(i&4095, int64(i))
			b.Sync()
		}), 0.5)))
		b.Close()
		t = now()
		b, err = openBackend("mmap:"+st.path("probe"), cells)
		if err != nil {
			st.Close()
			return nil, err
		}
		reopenNS = append(reopenNS, float64(now()-t))
		b.Close()
		st.Close()
	}
	s["membackend.mmap_open_ms"] = median(openNS) / 1e6
	s["membackend.mmap_reopen_ms"] = median(reopenNS) / 1e6
	s["membackend.mmap_sync_us"] = median(syncNS) / 1e3
	s["membackend.mmap_rw_ns"] = rw
	return s, nil
}

// netProbes: serial calls through a net: backend against an in-process
// register server.
func netProbes(r *run) (sample, error) {
	s := sample{}
	srv := newRegServer("atomic")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var openNS []float64
	var b backend
	for i := 0; i < 5; i++ {
		if b != nil {
			b.Close()
		}
		t := now()
		if b, err = openBackend(fmt.Sprintf("net:%s/probe%d", addr, i), 4096); err != nil {
			return nil, err
		}
		openNS = append(openNS, float64(now()-t))
	}
	defer b.Close()
	s["netmem.open_ms"] = median(openNS) / 1e6
	var sum int64
	rtt := eachNS(r.iters(5000), func(i int) { sum += b.Read(i & 4095) })
	s["netmem.read_rtt_p50_us"] = us(pct(rtt, 0.5))
	s["netmem.read_rtt_p99_us"] = us(pct(rtt, 0.99))
	const burst = 4096
	s["netmem.write_stream_ns"] = float64(pct(eachNS(r.iters(100), func(int) {
		for c := 0; c < burst; c++ {
			b.Write(c, int64(c))
		}
		b.Sync()
	}), 0.5)) / burst
	s["netmem.sync_rtt_us"] = us(pct(eachNS(r.iters(2000), func(int) { b.Sync() }), 0.5))
	_ = sum
	return s, nil
}

// jobdProbes: the wire floor (Ping), what admission adds to it (a serial
// submit at depth 1) and Dial, against a server set up as the workload's.
func (w *jobdWorkload) probes(r *run) (sample, error) {
	s := sample{}
	n := r.iters(3000)
	g := &jobdGen{w: w, orc: newOracle(n), rec: idleRecorder()}
	js, err := w.prepare(r, g.registry(), uint64(n))
	if err != nil {
		return nil, err
	}
	defer js.close()
	if err := js.open(nil); err != nil {
		return nil, err
	}
	var dialNS []float64
	for i := 0; i < 9; i++ {
		t := now()
		c, err := dialJobd(js.addr, "bench-dial")
		if err != nil {
			return nil, err
		}
		dialNS = append(dialNS, float64(now()-t))
		c.Close()
	}
	s["jobd.dial_ms"] = median(dialNS) / 1e6
	c := js.clients[0]
	var callErr error
	ping := pct(eachNS(n, func(int) {
		if err := c.Ping(); err != nil {
			callErr = err
		}
	}), 0.5)
	buf := make([]byte, w.payload)
	submit := pct(eachNS(n, func(i int) {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if _, err := c.Submit(jobdTenants[0], jobdTask, jobdTaskVer, buf, submitOpts{}); err != nil {
			callErr = err
		}
	}), 0.5)
	if callErr != nil {
		return nil, callErr
	}
	s["jobd.ping_rtt_p50_us"] = us(ping)
	s["jobd.admit_self_p50_us"] = us(submit - ping)
	return s, nil
}
