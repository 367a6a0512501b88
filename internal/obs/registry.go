package obs

import (
	"fmt"
	"strings"
	"sync"
)

// metricKind discriminates what a series holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// promType maps a kind to its Prometheus TYPE keyword.
func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family.
type series struct {
	labels []string // alternating k1, v1, k2, v2, …
	c      *Counter
	g      *Gauge
	h      *Histogram
	cFn    func() uint64
	gFn    func() float64
}

// family groups every series sharing one metric name; HELP and TYPE are
// family-wide, per the exposition format.
type family struct {
	name  string
	help  string
	kind  metricKind
	scale float64 // histogram exposition scale (raw units → exposed units)
	order []*series
	byKey map[string]*series
}

// Registry holds metric families and renders them. A Registry is safe
// for concurrent registration and exposition. Two registries are used
// in practice: one per Dispatcher (its gauges die with it) and the
// process-global Default for layers created from spec strings (netmem,
// membackend) that have no dispatcher to hang metrics off.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Default is the process-global registry. Layers without an owning
// Dispatcher (netmem client/server, membackend) register here; the ops
// endpoint exposes it alongside the dispatcher's own registry.
var Default = NewRegistry()

func labelKey(kv []string) string { return strings.Join(kv, "\x1f") }

// getSeries finds or creates the (name, labels) series, creating the
// family on first use; pull carries a pull-style series' function, which
// a scrape may call as soon as the lock is released. Registering the same
// name with a different kind is a programming error and panics — metric
// names are compile-time constants in this codebase.
func (r *Registry) getSeries(name, help string, kind metricKind, scale float64, kv []string, pull series) *series {
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, scale: scale, byKey: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind.promType(), f.kind.promType()))
	}
	key := labelKey(kv)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]string(nil), kv...), cFn: pull.cFn, gFn: pull.gFn}
		switch kind {
		case kindCounter:
			s.c = new(Counter)
		case kindGauge:
			s.g = new(Gauge)
		case kindHistogram:
			s.h = new(Histogram)
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter registers (or finds) a counter series. kv is an alternating
// label key/value list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.getSeries(name, help, kindCounter, 0, kv, series{}).c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.getSeries(name, help, kindGauge, 0, kv, series{}).g
}

// CounterFunc registers a pull-style counter: fn is called at
// exposition time. This is the zero-hot-path-cost shape — the engine
// keeps maintaining the counters it already had, and only the scrape
// pays for reading them. fn must be safe to call concurrently with the
// code it observes. A (name, labels) series keeps the fn it was first
// registered with.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, kv ...string) {
	r.getSeries(name, help, kindCounterFunc, 0, kv, series{cFn: fn})
}

// GaugeFunc registers a pull-style gauge; see CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	r.getSeries(name, help, kindGaugeFunc, 0, kv, series{gFn: fn})
}

// Histogram registers (or finds) a histogram series. scale converts
// recorded raw units into exposed units (1e-9 for nanosecond samples
// exposed as seconds; 1 for dimensionless samples).
func (r *Registry) Histogram(name, help string, scale float64, kv ...string) *Histogram {
	if scale == 0 {
		scale = 1
	}
	return r.getSeries(name, help, kindHistogram, scale, kv, series{}).h
}

// HistogramSnapshot merges every series of the named histogram family
// into one snapshot (per-label-set histograms of one family share the
// bucket layout, so the merge is exact). ok is false when the family is
// absent or not a histogram.
func (r *Registry) HistogramSnapshot(name string) (HistSnapshot, bool) {
	for _, f := range r.view() {
		if f.name == name && f.kind == kindHistogram {
			var out HistSnapshot
			for _, s := range f.series {
				out.Merge(s.h.Snapshot())
			}
			return out, true
		}
	}
	return HistSnapshot{}, false
}

// Snapshot renders the registry as a flat name{labels} → value map —
// the representation /statsz serves. Counters and gauges render as
// numbers; histograms as {count, sum, p50, p99, p999} sub-maps derived
// from the same buckets Prometheus sees.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, f := range r.view() {
		for _, s := range f.series {
			key := f.name + renderLabels(s.labels)
			switch f.kind {
			case kindCounter:
				out[key] = s.c.Value()
			case kindCounterFunc:
				out[key] = s.cFn()
			case kindGauge:
				out[key] = s.g.Value()
			case kindGaugeFunc:
				out[key] = s.gFn()
			case kindHistogram:
				snap := s.h.Snapshot()
				out[key] = map[string]any{
					"count": snap.Count,
					"sum":   float64(snap.Sum) * f.scale,
					"p50":   float64(snap.Quantile(0.50)) * f.scale,
					"p99":   float64(snap.Quantile(0.99)) * f.scale,
					"p999":  float64(snap.Quantile(0.999)) * f.scale,
				}
			}
		}
	}
	return out
}

// renderLabels formats an alternating k/v list as {k="v",…}; empty
// lists render as "".
func renderLabels(kv []string) string { return string(appendLabels(nil, kv, nil)) }

// famView is a family and the series it had when the view was taken.
type famView struct {
	*family
	series []*series
}

// view is the one way a reader sees the registry: every family, in
// registration order, with its series. Both lists only ever grow by
// append under r.mu, so the slice headers copied here stay valid outside
// the lock — a later registration writes past their length or into a new
// array, never into what they cover.
func (r *Registry) view() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]famView, len(r.order))
	for i, f := range r.order {
		out[i] = famView{f, f.order}
	}
	return out
}
