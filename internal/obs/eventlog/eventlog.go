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
//   - the flight recorder: a bounded ring that keeps the last
//     DefaultFlightCap records at ALL levels, even those the sink
//     suppresses. A record is copied into its ring slot as slog handed it
//     over (one atomic add, one slot lock, no allocation), so the hot path
//     can afford Debug events, and formatted only when dumped. When the
//     process dies — a fenced write, a fatal client error, a panic — the
//     ring is dumped as one JSON line prefixed AMO-FLIGHT-DUMP: the recent
//     history the leveled sink threw away. /flightz serves it on demand.
//
// The forensic contract: a crash artifact must never be just a panic
// string. CrashDump (and the DumpOnPanic defer helper) write the flight
// dump to stderr before the process exits, once per process — the first
// fault is the interesting one.
package eventlog

import (
	"bytes"
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
// records at the emission rates of this codebase (per-steal, per-lease,
// per-connection events — never per-op) covers several seconds of
// history before a crash, at ≤ 64 KiB once every slot has been written.
const DefaultFlightCap = 256

// Record is one captured event as Snapshot returns it and the flight
// dump serializes it. Seq is a process-global claim order (dense,
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

const inlineAttrs = 4 // held in the slot itself; a wider event's tail goes to spill, which later laps reuse

// flight is a record as the ring holds it, nothing formatted. h has the
// pre-bound attrs and the group prefix (immutable once built); a record
// stores only its own attrs, frozen: never a caller's live value.
type flight struct {
	seq   uint64
	ts    int64
	level slog.Level
	event string
	h     *Handler
	attrs [inlineAttrs]slog.Attr
	spill []slog.Attr
}

// slot is one ring position, allocated the first time the ring reaches
// it and rewritten in place on every later lap. mu covers plain copies
// only, so a crash dump never waits on a LogValuer, Stringer or Error().
type slot struct {
	mu sync.Mutex
	flight
}

// Recorder is the flight ring. A writer claims a sequence number with
// one atomic add and copies its record into that number's slot; Snapshot
// copies the slots out one at a time. Neither side holds more than one
// slot's lock, for the length of a copy, which is what makes recording
// safe from the dispatcher's hot path and from the middle of a panic.
type Recorder struct {
	slots []atomic.Pointer[slot]
	claim atomic.Uint64
}

// NewRecorder builds a flight ring keeping the last capacity records
// (DefaultFlightCap when capacity ≤ 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Recorder{slots: make([]atomic.Pointer[slot], capacity)}
}

// put claims the next Seq and copies f and its attrs into that slot; a
// writer lapped before it got the lock drops its record.
func (r *Recorder) put(f flight, attrs []slog.Attr) uint64 {
	f.seq = r.claim.Add(1)
	p := &r.slots[(f.seq-1)%uint64(len(r.slots))]
	s := p.Load()
	if s == nil {
		if s = new(slot); !p.CompareAndSwap(nil, s) {
			s = p.Load()
		}
	}
	s.mu.Lock()
	if s.seq < f.seq {
		f.spill = append(s.spill[:0], attrs[copy(f.attrs[:], attrs):]...)
		s.flight = f
	}
	s.mu.Unlock()
	return f.seq
}

// Add copies a record into the ring, stamping its Seq. Snapshot returns
// it with the process's own Inc and the Level parsed back.
func (r *Recorder) Add(rec *Record) {
	f := flight{ts: rec.TS, event: rec.Event, h: new(Handler)}
	_ = f.level.UnmarshalText([]byte(rec.Level)) // text slog does not know reads as INFO
	var attrs []slog.Attr
	for k, v := range rec.Attrs {
		attrs = appendFrozen(attrs, "", slog.Any(k, v))
	}
	rec.Seq = r.put(f, attrs)
}

// Snapshot returns the ring's records in Seq order, formatted for a
// reader: level and duration strings, RFC 3339 times, the attr map. It
// waits for at most one writer's copy per slot and reports what is there.
func (r *Recorder) Snapshot() []Record {
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		s := r.slots[i].Load()
		if s == nil {
			continue
		}
		s.mu.Lock()
		f := s.flight
		own := append(f.attrs[:], f.spill...) // f is a copy, and a full array's slice cannot grow in place
		s.mu.Unlock()
		if f.seq == 0 {
			continue // allocated by a writer that has yet to take the lock
		}
		rec := Record{Seq: f.seq, TS: f.ts, Level: f.level.String(), Event: f.event,
			Inc: obs.IncarnationString(), Attrs: map[string]any{}}
		rec.putAttrs("", f.h.attrs)
		rec.putAttrs(f.h.group, own)
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// putAttrs formats frozen attrs into the record's map. An empty Attr —
// an unused inline position — is skipped, as slog asks of any handler.
func (rec *Record) putAttrs(prefix string, attrs []slog.Attr) {
	for _, a := range attrs {
		if !a.Equal(slog.Attr{}) {
			rec.Attrs[prefix+a.Key] = attrValue(a.Value)
		}
	}
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
	var buf [2 * inlineAttrs]slog.Attr // staged outside the slot's lock: freezing may run user code
	attrs := buf[:0]
	r.Attrs(func(a slog.Attr) bool {
		attrs = appendFrozen(attrs, "", a)
		return true
	})
	ts := r.Time
	if ts.IsZero() {
		ts = time.Now()
	}
	h.rec.put(flight{ts: ts.UnixNano(), level: r.Level, event: r.Message, h: h}, attrs)
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
	nh.attrs = append([]slog.Attr(nil), h.attrs...)
	for _, a := range attrs {
		nh.attrs = appendFrozen(nh.attrs, h.group, a)
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

// appendFrozen appends a to dst in the shape the ring keeps: LogValuers
// resolved, group members flattened under dotted keys, and anything but a
// scalar, a string or a time turned into its string now (an error into
// its message), so the ring never holds a caller's mutable value.
func appendFrozen(dst []slog.Attr, prefix string, a slog.Attr) []slog.Attr {
	v := a.Value.Resolve()
	switch v.Kind() {
	case slog.KindGroup:
		for _, g := range v.Group() {
			dst = appendFrozen(dst, prefix+a.Key+".", g)
		}
		return dst
	case slog.KindAny:
		v = slog.StringValue(attrValue(v).(string))
	}
	return append(dst, slog.Attr{Key: prefix + a.Key, Value: v})
}

// attrValue coerces a value to a shape that survives a JSON round trip
// (durations and times to text, uint64 kept integral).
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
		var b bytes.Buffer
		if WriteFlight(&b, nil, reason) == nil {
			fmt.Fprintf(os.Stderr, "%s%s", DumpPrefix, b.Bytes())
		}
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
