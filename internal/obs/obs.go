// Package obs is the dispatcher's dependency-free observability core:
// atomic counters and gauges, log-bucketed mergeable histograms, a
// labeled registry with Prometheus text exposition, and a sampled
// per-job tracer. Every layer of the engine — dispatcher, netmem,
// membackend, the server binaries — records into this package, and the
// ops endpoint (obs/opshttp) serves what it holds.
//
// The design constraint is the dispatcher's hot path: a submit or a
// round must never pay for metrics it doesn't record. Counters and
// gauges are single atomics; most dispatcher metrics are registered as
// pull-style funcs over counters the engine already maintains, so the
// scrape pays the synchronization and the hot path pays nothing; the
// histogram's record path is two atomic adds. What the whole layer
// costs a stream is reported, not gated, by the benchmark of record's
// traced engine_stream run (obs.metrics_overhead_share).
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; Add and Inc are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64. The zero value is ready to use; Set and
// Add are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
