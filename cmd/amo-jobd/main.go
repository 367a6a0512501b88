// Command amo-jobd is the multi-tenant networked job service over the
// at-most-once engine (internal/jobd): clients submit named, registered
// task types over a binary TCP protocol; the server enforces per-tenant
// admission quotas, journals every admitted submission's descriptor,
// runs it through the streaming dispatcher, and streams completion
// events to subscribers. Killed and restarted over a durable backend
// (-backend mmap:PATH, or net:HOST:PORT/NS on an amo-regd), it replays
// the descriptor log: work a previous incarnation performed is deduped
// against the shard journals, work it merely admitted re-executes —
// exactly once either way. The default
// backend (atomic) is volatile: nothing it admits survives the process,
// so it keeps no descriptor log and no journal at all (its listening
// line says durable=false).
//
// The binary registers three demo task types (production deployments
// embed jobd.Server with their own Registry):
//
//	noop@v1   do nothing (payload ignored) — the load generator's default
//	sleep@v1  sleep for the little-endian uint32 milliseconds in the payload
//	fail@v1   return an error carrying the payload text
//
// Tenants are declared with repeated -tenant NAME:MAXPENDING:MAXHIGH
// flags (0 = unlimited); -default-tenant admits unlisted tenants under
// the given limits, otherwise they are rejected.
//
// With -load the same binary turns into the load generator: it opens
// -conns pipelined connections against -addr and pushes -jobs
// submissions down each, reporting accepted/quota/capacity counts and
// throughput (quota rejections are expected outcomes, not failures).
//
// Usage:
//
//	amo-jobd [-listen 127.0.0.1:7979] [-backend atomic|mmap:PATH|net:HOST:PORT/NS] [-maxjobs N] [-logcells C]
//	         [-shards S] [-workers W] [-journal-batch K]
//	         [-tenant NAME:MAXPENDING:MAXHIGH]... [-default-tenant MAXPENDING:MAXHIGH]
//	         [-metrics ADDR] [-trace RATE]
//	amo-jobd -load -addr HOST:PORT [-conns N] [-jobs M] [-tenants a,b] [-task noop] [-high-every N] [-subscribe]
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"atmostonce/internal/jobd"
	"atmostonce/internal/membackend"
	_ "atmostonce/internal/netmem" // the net: backend kind
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "amo-jobd:", err)
		os.Exit(1)
	}
}

// tenantFlags collects repeated -tenant NAME:MAXPENDING:MAXHIGH values.
type tenantFlags struct {
	m map[string]jobd.TenantLimits
}

func (t *tenantFlags) String() string { return fmt.Sprintf("%v", t.m) }

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 || parts[0] == "" {
		return fmt.Errorf("want NAME:MAXPENDING:MAXHIGH, got %q", v)
	}
	maxPending, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad MAXPENDING in %q: %w", v, err)
	}
	maxHigh, err := strconv.Atoi(parts[2])
	if err != nil {
		return fmt.Errorf("bad MAXHIGH in %q: %w", v, err)
	}
	if t.m == nil {
		t.m = make(map[string]jobd.TenantLimits)
	}
	t.m[parts[0]] = jobd.TenantLimits{MaxPending: maxPending, MaxHigh: maxHigh}
	return nil
}

// builtinRegistry registers the demo task types.
func builtinRegistry() *jobd.Registry {
	reg := jobd.NewRegistry()
	reg.Register("noop", 1, func(context.Context, []byte) error { return nil })
	reg.Register("sleep", 1, func(ctx context.Context, payload []byte) error {
		if len(payload) < 4 {
			return errors.New("sleep: payload wants a little-endian uint32 of milliseconds")
		}
		d := time.Duration(binary.LittleEndian.Uint32(payload)) * time.Millisecond
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	reg.Register("fail", 1, func(_ context.Context, payload []byte) error {
		return fmt.Errorf("fail: %s", payload)
	})
	return reg
}

// run starts the server (blocking until SIGINT/SIGTERM) or, with -load,
// runs the load generator to completion. ready, when non-nil, receives
// the server's bound address — the test hook.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("amo-jobd", flag.ContinueOnError)
	// Server mode.
	listen := fs.String("listen", "127.0.0.1:7979", "address to listen on (host:port; port 0 picks one)")
	backend := fs.String("backend", "atomic", "membackend spec family backing the shard journals and the descriptor log (e.g. mmap:/var/lib/amo/jobd, net:HOST:PORT/NS); the default is volatile and keeps neither")
	maxJobs := fs.Int("maxjobs", 1<<20, "job-id budget: across restarts on a durable backend (it sizes the shard journals), of this process on a volatile one")
	logCells := fs.Int("logcells", 1<<20, "descriptor-log size in 8-byte cells; a job takes 1+ceil((21+len(tenant)+len(task)+len(payload))/8), so size it to hold -maxjobs of them (ignored on a volatile backend: no log is kept)")
	shards := fs.Int("shards", 0, "dispatcher shards (0 = default)")
	workers := fs.Int("workers", 0, "workers per shard (0 = default)")
	journalBatch := fs.Int("journal-batch", 0, "journal group-commit factor (0 = per-job; ignored on a volatile backend: no journal is kept)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "declare a tenant as NAME:MAXPENDING:MAXHIGH (repeatable; 0 = unlimited)")
	defTenant := fs.String("default-tenant", "", "admit unlisted tenants under MAXPENDING:MAXHIGH limits (empty = reject them)")
	metrics := fs.String("metrics", "", "serve the ops endpoint (/metrics, /healthz, /statsz, /tracez, /debug/pprof/) on this address")
	trace := fs.Float64("trace", 0, "sample this fraction of job ids into the tracer (served at /tracez; 0 disables)")
	// Load-generator mode.
	load := fs.Bool("load", false, "run as load generator against -addr instead of serving")
	addr := fs.String("addr", "", "server address to hammer (load mode)")
	conns := fs.Int("conns", 16, "concurrent connections (load mode)")
	jobs := fs.Int("jobs", 100, "submissions per connection (load mode)")
	loadTenants := fs.String("tenants", "load", "comma-separated tenants to cycle through (load mode)")
	task := fs.String("task", "noop", "task name to submit (load mode)")
	taskVersion := fs.Uint("task-version", 1, "task version to submit (load mode)")
	payloadSize := fs.Int("payload", 8, "payload bytes per submission (load mode)")
	highEvery := fs.Int("high-every", 0, "make every Nth submission High priority (load mode; 0 = never)")
	subscribe := fs.Bool("subscribe", false, "subscribe to completions and wait for every accepted job (load mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	if *load {
		if *addr == "" {
			return errors.New("-load requires -addr")
		}
		// One more connection reads the server's counters around the run:
		// how many requests its core loop found per tick under this load,
		// and what a submission cost each side in socket calls (every
		// client's traffic, not only this run's, on the server side).
		ctl, err := jobd.Dial(*addr, jobd.ClientOptions{Name: "load-stats"})
		if err != nil {
			return err
		}
		defer ctl.Close()
		before, err := ctl.Stats()
		if err != nil {
			return err
		}
		rep, err := jobd.RunLoad(jobd.LoadOptions{
			Addr:        *addr,
			Conns:       *conns,
			Jobs:        *jobs,
			Tenants:     strings.Split(*loadTenants, ","),
			Task:        *task,
			Version:     uint32(*taskVersion),
			PayloadSize: *payloadSize,
			HighEvery:   *highEvery,
			Subscribe:   *subscribe,
		})
		if err != nil {
			return err
		}
		after, err := ctl.Stats()
		if err != nil {
			return err
		}
		ticks := after.Ticks - before.Ticks
		perJob := func(n uint64) float64 { return float64(n) / float64(max(rep.Submitted, 1)) }
		fmt.Printf("amo-jobd load: %v ticks=%d mean_tick=%.2f client_reads_per_job=%.2f client_writes_per_job=%.2f server_reads_per_job=%.2f server_writes_per_job=%.2f\n",
			rep, ticks, float64(after.TickReqs-before.TickReqs)/float64(max(ticks, 1)),
			perJob(rep.Reads), perJob(rep.Writes), perJob(after.ConnReads-before.ConnReads), perJob(after.ConnWrites-before.ConnWrites))
		if rep.Failed > 0 {
			return fmt.Errorf("%d submissions failed", rep.Failed)
		}
		return nil
	}

	if *trace < 0 || *trace > 1 {
		return fmt.Errorf("-trace %v out of range [0,1]", *trace)
	}
	opts := jobd.Options{
		Registry:        builtinRegistry(),
		Backend:         *backend,
		MaxJobs:         *maxJobs,
		LogCells:        *logCells,
		Shards:          *shards,
		Workers:         *workers,
		JournalBatch:    *journalBatch,
		Tenants:         tenants.m,
		MetricsAddr:     *metrics,
		TraceSampleRate: *trace,
	}
	if *defTenant != "" {
		parts := strings.Split(*defTenant, ":")
		if len(parts) != 2 {
			return fmt.Errorf("-default-tenant wants MAXPENDING:MAXHIGH, got %q", *defTenant)
		}
		maxPending, err := strconv.Atoi(parts[0])
		if err != nil {
			return fmt.Errorf("bad -default-tenant: %w", err)
		}
		maxHigh, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("bad -default-tenant: %w", err)
		}
		opts.DefaultLimits = &jobd.TenantLimits{MaxPending: maxPending, MaxHigh: maxHigh}
	}
	srv, err := jobd.New(opts)
	if err != nil {
		return err
	}
	bound, err := srv.Listen(*listen)
	if err != nil {
		srv.Close()
		return err
	}
	// Which side of membackend.Volatile this server is on: durable=false
	// means nothing it admits survives it.
	state := "durable=false"
	if !membackend.Volatile(*backend) {
		state = fmt.Sprintf("durable=true max_jobs=%d log_cells=%d", *maxJobs, *logCells)
	}
	fmt.Fprintf(os.Stderr, "amo-jobd: listening on %s backend=%s %s\n", bound, *backend, state)
	if *metrics != "" {
		fmt.Fprintf(os.Stderr, "amo-jobd: ops endpoint on %s\n", srv.OpsAddr())
	}
	// Catch the signals before announcing readiness: whoever hears
	// "ready" may send SIGTERM at once, and an uncaught one kills the
	// process instead of closing the server.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if ready != nil {
		ready <- bound
	}
	<-sig
	fmt.Fprintln(os.Stderr, "amo-jobd: shutting down")
	return srv.Close()
}
