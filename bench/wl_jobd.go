//go:build linux

package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	jobdConns      = 2  // one per tenant; pipelining comes from goroutines, not connections
	jobdSubmitters = 16 // closed loop: submitter goroutines per connection
	jobdTask       = "bench"
	jobdTaskVer    = 1

	openRate     = 8000.0 // open loop: Poisson arrivals per second, both connections together
	openInflight = 512    // open loop: submits in flight; a due job beyond it waits its turn
	openHighProb = 0.10   // open loop: share of PriorityHigh

	drainTimeout = 10 * time.Second
)

var jobdTenants = [jobdConns]string{"tenant-a", "tenant-b"}

// jobdWorkload is jobd_pipelined or jobd_durable_open.
type jobdWorkload struct {
	name    string
	durable bool // mmap backend with a descriptor log, reopened at the end
	payload int  // bytes; the first 8 carry the sequence number
	open    bool // open loop at openRate instead of closed-loop submitters
}

// jobdGen is the generator's view of one epoch: what it submitted, what
// ids came back, what events arrived.
type jobdGen struct {
	w   *jobdWorkload
	orc *oracle
	rec *recorder

	idOf []atomic.Uint64 // by sequence number: the id the server assigned
	evT  []int64         // by id: when the event handler saw it
	evN  []atomic.Uint32 // by id: events seen

	events    atomic.Uint64
	badStatus atomic.Uint64
	accepted  atomic.Uint64
	errs      atomic.Uint64 // transport errors and rejections other than the two below
	quota     atomic.Uint64
	capacity  atomic.Uint64

	template []byte  // payload bytes from the seed
	late     []int64 // open loop, by window index: send time − due time
}

func (g *jobdGen) registry() *jobdRegistry {
	reg := newJobdRegistry()
	reg.Register(jobdTask, jobdTaskVer, func(_ context.Context, p []byte) error {
		seq := binary.LittleEndian.Uint64(p)
		if g.rec.traced {
			g.rec.stamp(stRun, seq)
		}
		g.orc.Ran(seq)
		if g.rec.traced {
			g.rec.stamp(stRan, seq)
		}
		return nil
	})
	return reg
}

func (g *jobdGen) onEvent(ev jobdEvent) {
	if ev.ID < uint64(len(g.evT)) {
		g.evT[ev.ID] = now()
		g.evN[ev.ID].Add(1)
	}
	if ev.Status != statusOK {
		g.badStatus.Add(1)
	}
	g.events.Add(1)
}

// submitOne sends seq on c and accounts the reply.
func (g *jobdGen) submitOne(c *jobdClient, tenant string, buf []byte, seq uint64, o submitOpts) {
	binary.LittleEndian.PutUint64(buf, seq)
	id, err := c.Submit(tenant, jobdTask, jobdTaskVer, buf, o)
	switch {
	case err == nil:
		if g.rec.traced {
			g.rec.stamp(stAck, seq)
		}
		g.idOf[seq].Store(id)
		g.orc.Accepted(seq)
		g.accepted.Add(1)
	case isQuota(err):
		g.quota.Add(1)
	case isCapacity(err):
		g.capacity.Add(1)
	default:
		g.errs.Add(1)
	}
}

// closedLoop pushes lo..hi-1 through the connections with
// jobdSubmitters goroutines each; every goroutine waits for its admission
// reply before it submits again.
func (g *jobdGen) closedLoop(clients []*jobdClient, lo, hi uint64) {
	var next atomic.Uint64
	next.Store(lo)
	var wg sync.WaitGroup
	for ci, c := range clients {
		for k := 0; k < jobdSubmitters; k++ {
			wg.Add(1)
			go func(c *jobdClient, tenant string) {
				defer wg.Done()
				buf := append([]byte(nil), g.template...)
				for {
					seq := next.Add(1) - 1
					if seq >= hi {
						return
					}
					g.rec.stamp(stSubmit, seq)
					g.submitOne(c, tenant, buf, seq, submitOpts{})
				}
			}(c, jobdTenants[ci])
		}
	}
	wg.Wait()
}

type openReq struct {
	seq  uint64
	due  int64 // 0: warm-up, send at once
	high bool
}

// openLoop sends lo..hi-1 on a Poisson schedule drawn from rng,
// independent of how fast replies come back. A fixed pool of
// openInflight goroutines stands in for "one goroutine per due submit":
// the same in-flight cap, without the generator allocating per job. A job
// that comes due while the whole pool is busy is not dropped: it waits in
// the queue, and the wait counts in its latency, which runs from the due
// time. (Dropping it would fail the run whenever the host pauses the
// process for 64 ms, which a shared machine does.) With paced false the
// jobs are sent as fast as the pool takes them (warm-up).
func (g *jobdGen) openLoop(clients []*jobdClient, lo, hi uint64, rng *rand.Rand, paced bool) {
	chans := make([]chan openReq, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		// Room for the whole window, so the scheduler never blocks on a
		// send however far the pool falls behind.
		ch := make(chan openReq, hi-lo)
		chans[ci] = ch
		for k := 0; k < openInflight/len(clients); k++ {
			wg.Add(1)
			go func(c *jobdClient, tenant string) {
				defer wg.Done()
				buf := append([]byte(nil), g.template...)
				for rq := range ch {
					if rq.due != 0 {
						g.rec.set(stSubmit, rq.seq, rq.due)
						g.late[rq.seq-lo] = now() - rq.due
					}
					o := submitOpts{}
					if rq.high {
						o.Priority = priorityHigh
					}
					g.submitOne(c, tenant, buf, rq.seq, o)
				}
			}(c, jobdTenants[ci])
		}
	}
	schedule := func() {
		due := now()
		for seq := lo; seq < hi; seq++ {
			rq := openReq{seq: seq, high: rng.Float64() < openHighProb}
			ch := chans[rng.Intn(len(chans))]
			if !paced {
				ch <- rq
				continue
			}
			due += int64(rng.ExpFloat64() / openRate * 1e9)
			for d := due - now(); d > 0; d = due - now() {
				sleepNS(d)
			}
			rq.due = due
			ch <- rq
		}
	}
	if paced {
		// The schedule runs on a thread of its own, because sleepNS blocks
		// the thread and not just the goroutine, and with that thread's
		// timer slack removed (PR_SET_TIMERSLACK), so that a sleep wakes
		// when due and not up to the default 50 µs later. The goroutine
		// ends without unlocking, which ends the thread and its setting.
		done := make(chan struct{})
		go func() {
			defer close(done)
			runtime.LockOSThread()
			syscall.Syscall(syscall.SYS_PRCTL, 29, 1, 0)
			schedule()
		}()
		<-done
	} else {
		schedule()
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// sleepNS sleeps in the kernel. The runtime's own timers round a sleep of
// less than a millisecond up to one when the thread parks in the network
// poller — at 8000 arrivals a second that made the generator 1.4 ms late at
// p99 and put its lateness, not the server, into every latency — where
// nanosleep wakes when due (p50 35 µs late with the timer slack removed).
func sleepNS(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil) // an early return is handled by the caller's loop
}

// drain waits until every accepted job's event has arrived.
func (g *jobdGen) drain() {
	deadline := time.Now().Add(drainTimeout)
	for g.events.Load() < g.accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
}

// settle hands every event to the oracle under its job's sequence number
// and completes the stamps of the sampled jobs.
func (g *jobdGen) settle(total uint64) (completed uint64) {
	for seq := uint64(0); seq < total; seq++ {
		id := g.idOf[seq].Load()
		if id == 0 || id >= uint64(len(g.evT)) {
			continue
		}
		n := g.evN[id].Load()
		for k := uint32(0); k < n; k++ {
			g.orc.Done(seq)
		}
		if n > 0 {
			g.rec.set(stDone, seq, g.evT[id])
			if seq >= g.rec.lo {
				completed++
			}
		}
	}
	return completed
}

// jobdSetup is a running server with its connected, subscribed clients.
type jobdSetup struct {
	opts    jobdOptions
	srv     *jobdServer
	addr    string
	clients []*jobdClient
	st      *store
}

// prepare makes the options of the workload's server for total jobs and,
// where durable, its files; open starts it.
func (w *jobdWorkload) prepare(r *run, reg *jobdRegistry, total uint64) (*jobdSetup, error) {
	js := &jobdSetup{}
	js.opts = jobdOptions{
		Registry: reg,
		Shards:   shards, Workers: workersShard, MaxBatch: maxBatch,
		MaxJobs: int(total) + 64*shards + 64,
		// One header cell plus the encoded descriptor (21 bytes of fixed
		// fields, tenant, task, payload) per job.
		LogCells:   (int(total) + 64) * (2 + (21+len(jobdTenants[0])+len(jobdTask)+w.payload)/8),
		MaxPayload: w.payload,
		Tenants:    map[string]tenantLimits{},
	}
	for _, t := range jobdTenants {
		// Quotas that never bind: the window never holds this many.
		js.opts.Tenants[t] = tenantLimits{MaxPending: 1 << 30, MaxHigh: 1 << 30}
	}
	if w.durable {
		st, err := newStore(r.tmp, "regs.shard0", "regs.shard1", "regs.desclog")
		if err != nil {
			return nil, err
		}
		js.st = st
		js.opts.Backend = "mmap:" + st.path("regs")
		js.opts.JournalBatch = journalBatch
	}
	return js, nil
}

// open starts a server on the prepared options and connects the clients;
// every client subscribes to its own tenant with onEvent.
func (js *jobdSetup) open(onEvent func(jobdEvent)) error {
	srv, err := newJobdServer(js.opts)
	if err != nil {
		return fmt.Errorf("jobd.New: %w", err)
	}
	js.srv = srv
	if js.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	for i, tenant := range jobdTenants {
		c, err := dialJobd(js.addr, fmt.Sprintf("bench-%d", i))
		if err != nil {
			return err
		}
		js.clients = append(js.clients, c)
		if onEvent != nil {
			if err := c.Subscribe(tenant, onEvent); err != nil {
				return err
			}
		}
	}
	return nil
}

// stop hangs up the clients and closes the server; the store stays.
func (js *jobdSetup) stop() error {
	for _, c := range js.clients {
		c.Close()
	}
	js.clients = nil
	if js.srv == nil {
		return nil
	}
	err := js.srv.Close()
	js.srv = nil
	return err
}

func (js *jobdSetup) close() {
	js.stop()
	if js.st != nil {
		js.st.Close()
	}
}

func (w *jobdWorkload) epoch(r *run, e int, traced bool) (*epochOut, error) {
	jobs, warm := r.count(w.name)
	total := uint64(warm + jobs)
	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(e)))
	g := &jobdGen{
		w:    w,
		orc:  newOracle(int(total)),
		rec:  r.recorder(traced, jobs),
		idOf: make([]atomic.Uint64, total),
		// Ids are dense from 1 up to the jobs admitted, plus the shards'
		// partly used id blocks.
		evT:      make([]int64, total+64*shards+64),
		evN:      make([]atomic.Uint32, total+64*shards+64),
		template: make([]byte, w.payload),
		late:     make([]int64, jobs),
	}
	rng.Read(g.template)
	g.rec.arm(uint64(warm), total)

	// Set-up: server, listen, dial, subscribe. The warm-up that follows is
	// not part of it: see README.md, "setup_s".
	var js *jobdSetup
	setup, teardown, err := timedSetup(func() (int64, func(), error) {
		var err error
		if js, err = w.prepare(r, g.registry(), total); err != nil {
			return 0, nil, err
		}
		t := now()
		if err := js.open(g.onEvent); err != nil {
			js.close()
			return 0, nil, err
		}
		return now() - t, js.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	if w.open {
		g.openLoop(js.clients, 0, uint64(warm), rng, false)
	} else {
		g.closedLoop(js.clients, 0, uint64(warm))
	}
	g.drain()
	warmAccepted := g.accepted.Load()

	// Timed window: first submit to last event.
	m0 := readMeter()
	if w.open {
		g.openLoop(js.clients, uint64(warm), total, rng, true)
	} else {
		g.closedLoop(js.clients, uint64(warm), total)
	}
	g.drain()
	m1 := readMeter()

	stats, err := js.clients[0].Stats()
	if err != nil {
		return nil, fmt.Errorf("server stats: %w", err)
	}
	done := g.settle(total)
	accepted := g.accepted.Load() - warmAccepted

	out := &epochOut{s: sample{}, attempted: uint64(jobs)}
	s := out.s
	lat := g.rec.between(stSubmit, stDone)
	window(out, m0, m1, done, traced, setup, lat)
	if traced {
		n := float64(done)
		ack := g.rec.between(stSubmit, stAck)
		s["jobd.ack_p50_us"] = us(pct(ack, 0.5))
		s["jobd.ack_p90_us"] = us(pct(ack, 0.9))
		s["jobd.ack_p99_us"] = us(pct(ack, 0.99))
		s["jobd.submit_to_run_p50_us"] = us(pct(g.rec.between(stSubmit, stRun), 0.5))
		s["jobd.run_to_event_p50_us"] = us(pct(g.rec.between(stRan, stDone), 0.5))
		s["jobd.done_p90_us"] = us(pct(lat, 0.9))
		s["jobd.done_p99_us"] = us(pct(lat, 0.99))
		label, pmax := deepest(lat)
		out.pmaxLabel = label
		s["jobd.done_pmax_us"] = us(pmax)
		s["jobd.wire_bytes_per_job"] = (m1.delta(m0, "amo_jobd_server_bytes_received_total") +
			m1.delta(m0, "amo_jobd_server_bytes_sent_total")) / n
		s["jobd.events_per_job"] = (float64(g.events.Load()) - float64(warmAccepted)) / float64(accepted)
		s["jobd.events_dropped"] = m1.delta(m0, "amo_jobd_events_dropped_total")
		s["jobd.rejected_quota_share"] = float64(g.quota.Load()) / float64(total)
		s["jobd.rejected_capacity_share"] = float64(g.capacity.Load()) / float64(total)
		s["dispatch.duplicates"] = float64(stats.Jobs.Duplicates)
		s["membackend.flushes_per_job"] = m1.delta(m0, "amo_membackend_syncs_total") / n
		if w.open {
			late := sortedCopy(g.late)
			s["loadgen.late_p50_us"] = us(pct(late, 0.5))
			s["loadgen.late_p99_us"] = us(pct(late, 0.99))
		}
		if js.st != nil {
			s["membackend.store_bytes_per_job"] = float64(js.st.bytes()) / float64(total)
		}
		bud := g.rec.stages()
		out.budget = &bud
		s["loadgen.budget_gap_share"] = bud.Gap
	}

	if stats.Jobs.Duplicates != 0 {
		g.orc.fail("server Stats: %d duplicates", stats.Jobs.Duplicates)
	}
	if n := g.badStatus.Load(); n != 0 {
		g.orc.fail("%d events carried a status other than ok", n)
	}

	// Reopen: Close, then New on the filled store replays the descriptor
	// log; every logged job must resolve from the shard journals and none
	// may run again.
	if w.durable {
		admitted := g.accepted.Load()
		t := now()
		if err := js.stop(); err != nil {
			return nil, fmt.Errorf("close server: %w", err)
		}
		g.orc.Seal()
		srv, err := newJobdServer(js.opts)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		recoverNS := now() - t
		js.srv = srv
		if js.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		c, err := dialJobd(js.addr, "bench-verify")
		if err != nil {
			return nil, err
		}
		js.clients = append(js.clients, c)
		after, err := c.Stats()
		if err != nil {
			return nil, fmt.Errorf("server stats after reopen: %w", err)
		}
		if after.Replayed != admitted || after.Jobs.Recovered != admitted || after.Jobs.Pending != 0 ||
			after.Reexecuted != 0 || after.Jobs.Duplicates != 0 {
			g.orc.fail("after reopen of %d logged jobs: replayed %d, recovered %d, pending %d, re-executed %d, duplicates %d",
				admitted, after.Replayed, after.Jobs.Recovered, after.Jobs.Pending, after.Reexecuted, after.Jobs.Duplicates)
		}
		if traced {
			s["jobd.recover_ms"] = ms(recoverNS)
			s["jobd.replay_us_per_job"] = us(recoverNS) / float64(admitted)
		}
	}

	out.failed = g.errs.Load() + g.quota.Load() + g.capacity.Load() + (accepted - min(accepted, done))
	out.err = g.orc.Check()
	if traced {
		s["loadgen.fail_share"] = float64(out.failed) / float64(out.attempted)
		if err := r.writeSpans(g.rec, w.name, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}
