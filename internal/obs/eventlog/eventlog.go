// Package eventlog is the process's structured event log and crash
// flight recorder, built on log/slog with no dependencies outside the
// standard library.
//
// Every record flows through two paths with different retention and
// different cost models:
//
//   - the sink: a leveled slog text handler on stderr, for humans. Its
//     level comes from AMO_LOG (debug, info, warn, error, off; default
//     info), and every line carries inc=<id>, the process incarnation
//     from internal/obs.
//
//   - the flight recorder: a bounded lock-free ring that keeps the last
//     DefaultFlightCap records at ALL levels, even those the sink
//     suppresses. Debug-level round summaries cost two atomic ops each,
//     so the hot path can afford them; and when the process dies — a
//     fenced write, a fatal client error, a panic — the ring is dumped
//     as one JSON line prefixed AMO-FLIGHT-DUMP, giving the post-mortem
//     the detailed recent history that the leveled sink threw away.
//     /flightz serves the same dump on demand.
//
// The forensic contract: a crash artifact must never be just a panic
// string. CrashDump (and the DumpOnPanic defer helper) write the flight
// dump to stderr before the process exits, once per process — the first
// fault is the interesting one.
package eventlog

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atmostonce/internal/obs"
)

// DefaultFlightCap is the default flight-recorder ring capacity. 256
// records at the emission rates of this codebase (per-round, per-lease,
// per-connection events — never per-op) covers several seconds of
// history before a crash, at ~40 KiB resident.
const DefaultFlightCap = 256

// Record is one captured event as the flight recorder stores it and the
// flight dump serializes it. Seq is a process-global claim order (dense,
// starting at 1) that survives into the dump so readers can see ring
// wrap-around and interleave records exactly as emitted; TS is wall
// clock for cross-process correlation with /tracez timelines.
type Record struct {
	Seq   uint64         `json:"seq"`
	TS    int64          `json:"ts_unix_nano"`
	Level string         `json:"level"`
	Event string         `json:"event"`
	Inc   string         `json:"inc"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Recorder is the lock-free flight ring. Writers claim a slot with one
// atomic add and publish the record with one atomic pointer store;
// readers snapshot whatever is published. Neither side ever blocks the
// other, which is the property that makes recording safe from the
// dispatcher's hot path and from the middle of a panic.
type Recorder struct {
	slots []atomic.Pointer[Record]
	claim atomic.Uint64
}

// NewRecorder builds a flight ring keeping the last capacity records
// (DefaultFlightCap when capacity ≤ 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Recorder{slots: make([]atomic.Pointer[Record], capacity)}
}

// Add publishes a record into the ring, stamping its Seq. The record
// must not be mutated afterwards.
func (r *Recorder) Add(rec *Record) {
	seq := r.claim.Add(1)
	rec.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(rec)
}

// Snapshot returns the currently published records in Seq order. It is
// a best-effort read — a writer racing the snapshot may leave its slot
// holding the previous occupant — which is exactly what a flight
// recorder wants: never wait, report what is there.
func (r *Recorder) Snapshot() []Record {
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		if rec := r.slots[i].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Handler is the slog.Handler that tees every record into a Recorder
// and forwards sink-level-and-above records to a wrapped handler. Its
// Enabled always reports true: the ring records below the sink level by
// design, and level filtering for the sink happens inside Handle.
type Handler struct {
	rec   *Recorder
	sink  slog.Handler
	attrs []slog.Attr // pre-bound via WithAttrs, keys already group-prefixed
	group string      // dotted prefix for subsequent attr keys
}

// NewHandler tees records into rec and forwards to sink (nil for
// ring-only logging).
func NewHandler(rec *Recorder, sink slog.Handler) *Handler {
	return &Handler{rec: rec, sink: sink}
}

func (h *Handler) Enabled(context.Context, slog.Level) bool { return true }

func (h *Handler) Handle(ctx context.Context, r slog.Record) error {
	rec := &Record{
		TS:    r.Time.UnixNano(),
		Level: r.Level.String(),
		Event: r.Message,
		Inc:   obs.IncarnationString(),
	}
	if rec.TS == 0 {
		rec.TS = time.Now().UnixNano()
	}
	if len(h.attrs) > 0 || r.NumAttrs() > 0 {
		rec.Attrs = make(map[string]any, len(h.attrs)+r.NumAttrs())
		for _, a := range h.attrs {
			putAttr(rec.Attrs, "", a)
		}
		r.Attrs(func(a slog.Attr) bool {
			putAttr(rec.Attrs, h.group, a)
			return true
		})
	}
	h.rec.Add(rec)
	if h.sink != nil && h.sink.Enabled(ctx, r.Level) {
		return h.sink.Handle(ctx, r)
	}
	return nil
}

func (h *Handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	nh := *h
	nh.attrs = make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	nh.attrs = append(nh.attrs, h.attrs...)
	for _, a := range attrs {
		a.Key = h.group + a.Key
		nh.attrs = append(nh.attrs, a)
	}
	if h.sink != nil {
		nh.sink = h.sink.WithAttrs(attrs)
	}
	return &nh
}

func (h *Handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := *h
	nh.group = h.group + name + "."
	if h.sink != nil {
		nh.sink = h.sink.WithGroup(name)
	}
	return &nh
}

// putAttr flattens one attr into the record's map, resolving LogValuers
// and dotting group members, and coercing values to shapes that survive
// a JSON round trip (errors to their messages, uint64 kept integral).
func putAttr(m map[string]any, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		for _, g := range v.Group() {
			putAttr(m, prefix+a.Key+".", g)
		}
		return
	}
	m[prefix+a.Key] = attrValue(v)
}

func attrValue(v slog.Value) any {
	switch v.Kind() {
	case slog.KindString:
		return v.String()
	case slog.KindInt64:
		return v.Int64()
	case slog.KindUint64:
		return v.Uint64()
	case slog.KindFloat64:
		return v.Float64()
	case slog.KindBool:
		return v.Bool()
	case slog.KindDuration:
		return v.Duration().String()
	case slog.KindTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		a := v.Any()
		if err, ok := a.(error); ok {
			return err.Error()
		}
		return fmt.Sprint(a)
	}
}

// New builds a logger whose records all land in the returned Recorder
// and whose text sink on w filters at level. Every sink line carries
// inc=<incarnation>.
func New(w io.Writer, level slog.Level, capacity int) (*slog.Logger, *Recorder) {
	rec := NewRecorder(capacity)
	var sink slog.Handler
	if w != nil {
		sink = slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}).
			WithAttrs([]slog.Attr{slog.String("inc", obs.IncarnationString())})
	}
	return slog.New(NewHandler(rec, sink)), rec
}

// levelOff is a sink level above every slog level: the ring still
// records, the sink stays silent.
const levelOff = slog.Level(127)

func levelFromEnv(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "", "info":
		return slog.LevelInfo
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	case "off":
		return levelOff
	default:
		return slog.LevelInfo
	}
}

var (
	defaultLogger   *slog.Logger
	defaultRecorder *Recorder
	sinkLevel       slog.Level
)

func init() {
	sinkLevel = levelFromEnv(os.Getenv("AMO_LOG"))
	defaultLogger, defaultRecorder = New(os.Stderr, sinkLevel, DefaultFlightCap)
}

// SinkEnabled reports whether the process sink (stderr, leveled by
// AMO_LOG) records at level l. The flight ring records at ALL levels,
// so slog's own Enabled gate never fires for the default logger; hot
// paths that emit high-frequency records use this to decide whether the
// operator asked for them at full rate or a sampled trickle into the
// ring is enough (see dispatch's per-round heartbeat).
func SinkEnabled(l slog.Level) bool { return l >= sinkLevel }

// Logger returns the process-default event logger (sink on stderr,
// level from AMO_LOG, flight ring behind it). Layers log through this
// rather than constructing their own so one flight recorder sees the
// whole process.
func Logger() *slog.Logger { return defaultLogger }

// Default returns the process-default flight recorder.
func Default() *Recorder { return defaultRecorder }

// FlightDump is the JSON document a flight-recorder dump serializes:
// the dumping process's incarnation, why it dumped, and the ring's
// records oldest-first.
type FlightDump struct {
	Incarnation string   `json:"incarnation"`
	Reason      string   `json:"reason"`
	Events      []Record `json:"events"`
}

// DumpPrefix marks a flight dump line on stderr; everything after it on
// the line is one FlightDump JSON object. Post-mortem tooling (and the
// failover example's parent process) keys on this prefix.
const DumpPrefix = "AMO-FLIGHT-DUMP "

// WriteFlight writes the recorder's current contents as a FlightDump
// JSON object (no prefix — this is the /flightz body).
func WriteFlight(w io.Writer, rec *Recorder, reason string) error {
	if rec == nil {
		rec = defaultRecorder
	}
	enc := json.NewEncoder(w)
	return enc.Encode(FlightDump{
		Incarnation: obs.IncarnationString(),
		Reason:      reason,
		Events:      rec.Snapshot(),
	})
}

var dumpOnce sync.Once

// dumpToStderr writes the prefixed one-line flight dump. Once per
// process: the first fault is the forensically interesting one, and a
// cascade of dumps during teardown would bury it.
func dumpToStderr(reason string) {
	dumpOnce.Do(func() {
		b, err := json.Marshal(FlightDump{
			Incarnation: obs.IncarnationString(),
			Reason:      reason,
			Events:      defaultRecorder.Snapshot(),
		})
		if err != nil {
			return
		}
		fmt.Fprintf(os.Stderr, "%s%s\n", DumpPrefix, b)
	})
}

// CrashDump records a fatal event (level Error, with args as slog
// attrs) and then dumps the flight ring to stderr. Call it on the way
// to a deliberate process death — a fenced write, a fatal client error
// — so the death leaves a forensic artifact, not just a panic string.
func CrashDump(event string, args ...any) {
	defaultLogger.Error(event, args...)
	dumpToStderr(event)
}

// DumpOnPanic is a defer helper: if the goroutine is panicking, dump
// the flight ring (reason "panic") and re-panic. It never swallows the
// panic — the process still dies, it just dies documented.
func DumpOnPanic() {
	if r := recover(); r != nil {
		defaultLogger.Error("panic", "value", fmt.Sprint(r))
		dumpToStderr("panic")
		panic(r)
	}
}
