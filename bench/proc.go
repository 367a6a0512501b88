//go:build linux

package main

import (
	"bufio"
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch0 anchors the benchmark's monotonic clock.
var epoch0 = time.Now()

// now returns nanoseconds on the monotonic clock.
func now() int64 { return int64(time.Since(epoch0)) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters reads the process-wide metric registry through its Prometheus
// exposition — the same bytes an operator scrapes — and sums every series
// of a family, so "amo_netmem_client_requests_total" is the total over
// its op labels.
func counters() map[string]float64 {
	var buf bytes.Buffer
	if err := metricsRoot.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// meter snapshots everything that is read as a difference over a timed
// window: wall clock, CPU, allocator and collector counts, and the
// registry's counters.
type meter struct {
	wall  int64
	cpu   time.Duration
	mem   runtime.MemStats
	count map[string]float64
}

func readMeter() *meter {
	m := &meter{count: counters()}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.wall = now()
	return m
}

// delta returns the growth of one registry counter family since from.
func (m *meter) delta(from *meter, family string) float64 {
	return m.count[family] - from.count[family]
}

// window fills in the numbers every workload reports the same way: from the
// two meters around the timed window, the jobs it resolved, the set-up time
// before it and the sorted submit→done latencies of its sampled jobs. It
// is called with the system still open, which heap_mb needs.
func window(out *epochOut, from, to *meter, jobs uint64, traced bool, setupNS int64, lat []int64) {
	secs := float64(to.wall-from.wall) / 1e9
	n := float64(jobs)
	s := out.s
	out.jobsPerS = n / secs
	if traced {
		s["proc.gc_cycles"] = float64(to.mem.NumGC - from.mem.NumGC)
		s["proc.gc_pause_ms"] = float64(to.mem.PauseTotalNs-from.mem.PauseTotalNs) / 1e6
		s["loadgen.latency_samples"] = float64(len(lat))
		return
	}
	s["setup_s"] = float64(setupNS) / 1e9
	s["allocs_per_job"] = float64(to.mem.Mallocs-from.mem.Mallocs) / n
	s["heap_mb"] = liveHeapMB()
	s["jobs_per_s"] = out.jobsPerS
	s["done_p50_us"] = us(pct(lat, 0.5))
	s["done_p90_us"] = us(pct(lat, 0.9))
	s["cpu_us_per_job"] = float64((to.cpu - from.cpu).Nanoseconds()) / 1e3 / n
}

// liveHeapMB forces two collections and returns the live heap. The second
// one frees what sync.Pools handed to their victim caches in the first:
// how much they held at that moment is the schedule's doing, not live data.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupReps is how often an epoch sets its system up. Set-up times are
// milliseconds or less — system calls, page faults, goroutine wake-ups — and
// single ones scatter by half, and tenfold while the host is busy, always
// upwards; about one build in a hundred is also two to three times quicker
// than any other (jobd_pipelined: 1.2 ms under a floor of 2.5 ms), so the
// quickest build of a whole run repeats worst of all (ten runs: 1.1–3.1 ms).
// The epoch reports the quickest of its builds and the run the better
// quartile of its epochs, like every other metric: a quarter of the epochs
// must have had a build that quick. Over five quiet runs and five beside two
// busy loops, per workload, that read within 8–30% from run to run and its
// median moved by 4–12% between the two conditions; with 9 builds per epoch
// and the median of the epochs, two ten-run sets had read +38% apart.
const setupReps = 25

// timedSetup builds the epoch's system setupReps times, tearing down every
// build but the last, which it hands back with its teardown. build times
// the program's own constructors and returns that; what the harness does
// around them (temporary files, the register server durable_net connects
// to) is not set-up of the system under test.
func timedSetup(build func() (ns int64, teardown func(), err error)) (quickestNS int64, teardown func(), err error) {
	all := make([]int64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if teardown != nil {
			teardown()
		}
		var ns int64
		if ns, teardown, err = build(); err != nil {
			return 0, nil, err
		}
		all = append(all, ns)
	}
	return slices.Min(all), teardown, nil
}
