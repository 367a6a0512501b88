// Command amo-regd is the networked register server: it owns register
// namespaces backed by any membackend spec (in-memory atomic by
// default, durable mmap register files with -backend mmap:PATH) and
// serves range reads, acked range writes and sync plus single-writer
// lease arbitration over the netmem wire protocol (DESIGN.md §8).
//
// A dispatcher connects by spec, e.g.
//
//	atmostonce.DispatcherConfig{Backend: "net:127.0.0.1:7878/jobs", MaxJobs: 1 << 20}
//
// Each dispatcher shard takes namespace "jobs.shard<i>" and holds its
// writer lease; a second dispatcher over the same namespaces waits for
// the lease and takes over with a higher fencing epoch, so a stalled
// predecessor can never corrupt the registers (examples/failover runs
// that end to end).
//
// With -metrics ADDR the server also exposes the process ops endpoint
// (internal/obs/opshttp): Prometheus exposition of the netmem server
// families — connections, per-op request counts, lease grants/renewals,
// fenced-write rejections, bytes in/out — plus membackend counters, Go
// runtime health and amo_build_info at /metrics, liveness at /healthz,
// a JSON snapshot at /statsz, the flight recorder at /flightz and
// pprof at /debug/pprof/. Structured events go to stderr at the level
// named by AMO_LOG (debug, info, warn, error, off). See DESIGN.md §10.
//
// Usage:
//
//	amo-regd [-listen 127.0.0.1:7878] [-backend atomic|mmap:PATH|...] [-lease 2s] [-max-lease 1m] [-metrics 127.0.0.1:9090]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atmostonce/internal/netmem"
	"atmostonce/internal/obs"
	"atmostonce/internal/obs/opshttp"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "amo-regd:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until SIGINT/SIGTERM (or a value on
// stop, the test hook). ready, when non-nil, receives the bound
// address.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("amo-regd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7878", "address to listen on (host:port; port 0 picks one)")
	backend := fs.String("backend", "atomic", "membackend spec template backing the namespaces; instance-bearing kinds get a .<namespace> suffix (e.g. mmap:/var/lib/amo/regs)")
	lease := fs.Duration("lease", 2*time.Second, "default writer-lease TTL granted to clients that do not ask for one")
	maxLease := fs.Duration("max-lease", time.Minute, "upper bound on client-requested lease TTLs")
	metrics := fs.String("metrics", "", "serve the ops endpoint (/metrics, /healthz, /statsz, /tracez, /flightz, /debug/pprof/) on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	srv := netmem.NewServer(netmem.ServerOptions{
		Spec:       *backend,
		DefaultTTL: *lease,
		MaxTTL:     *maxLease,
	})
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	logf("amo-regd: listening on %s (backend %s, lease %s)", addr, *backend, *lease)
	if *metrics != "" {
		ops, err := opshttp.Serve(*metrics, opshttp.Options{
			Registries: []*obs.Registry{obs.Default},
		})
		if err != nil {
			srv.Close()
			return err
		}
		defer ops.Close()
		logf("amo-regd: ops endpoint on %s", ops.Addr())
	}
	// Catch the signals before announcing readiness: whoever hears
	// "ready" may send SIGTERM at once.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if ready != nil {
		ready <- addr
	}
	s := <-sig
	logf("amo-regd: %s, shutting down", s)
	return srv.Close()
}
