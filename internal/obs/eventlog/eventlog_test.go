package eventlog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"atmostonce/internal/obs"
)

// TestRingCapturesBelowSinkLevel: the flight ring keeps Debug records
// even when the sink is at Warn — the whole point of teeing before the
// level filter — and the sink stays quiet about them.
func TestRingCapturesBelowSinkLevel(t *testing.T) {
	var sinkOut bytes.Buffer
	log, rec := New(&sinkOut, slog.LevelWarn, 16)
	log.Debug("round_summary", "shard", 0, "jobs", 12)
	log.Info("connected", "addr", "x")
	log.Warn("fenced", "epoch", 3)

	events := rec.Snapshot()
	if len(events) != 3 {
		t.Fatalf("ring holds %d records, want 3: %+v", len(events), events)
	}
	for i, want := range []string{"round_summary", "connected", "fenced"} {
		if events[i].Event != want {
			t.Fatalf("ring[%d] = %q, want %q", i, events[i].Event, want)
		}
		if events[i].Seq != uint64(i+1) {
			t.Fatalf("ring[%d].Seq = %d, want %d", i, events[i].Seq, i+1)
		}
		if events[i].Inc != obs.IncarnationString() {
			t.Fatalf("ring[%d].Inc = %q", i, events[i].Inc)
		}
		if events[i].TS == 0 {
			t.Fatalf("ring[%d] has no wall-clock stamp", i)
		}
	}
	if events[0].Attrs["jobs"] != int64(12) {
		t.Fatalf("debug attrs = %#v", events[0].Attrs)
	}

	sunk := sinkOut.String()
	if strings.Contains(sunk, "round_summary") || strings.Contains(sunk, "connected") {
		t.Fatalf("sink at Warn leaked lower-level records:\n%s", sunk)
	}
	if !strings.Contains(sunk, "fenced") || !strings.Contains(sunk, "inc="+obs.IncarnationString()) {
		t.Fatalf("sink line missing event or incarnation:\n%s", sunk)
	}

	// AMO_LOG=off: the sink is silent even about an error, the ring is
	// not — the record a flight dump needs is still there.
	sinkOut.Reset()
	log, rec = New(&sinkOut, levelFromEnv("off"), 16)
	log.Error("netmem_client_fatal", "fenced", true)
	if events := rec.Snapshot(); len(events) != 1 || events[0].Event != "netmem_client_fatal" || sinkOut.Len() != 0 {
		t.Fatalf("silenced sink: ring %+v, sink %q", events, sinkOut.String())
	}
}

// TestRingWrapKeepsNewest: past capacity, the ring retains exactly the
// last N records, still in Seq order.
func TestRingWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(8)
	for i := 1; i <= 20; i++ {
		rec.Add(&Record{Event: fmt.Sprintf("e%d", i)})
	}
	events := rec.Snapshot()
	if len(events) != 8 {
		t.Fatalf("ring holds %d, want 8", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(13 + i)
		if e.Seq != wantSeq || e.Event != fmt.Sprintf("e%d", wantSeq) {
			t.Fatalf("ring[%d] = seq %d event %q, want seq %d", i, e.Seq, e.Event, wantSeq)
		}
	}
}

// TestRecorderConcurrent: concurrent Add and Snapshot must be safe (the
// race detector is the real assertion here) and every snapshotted Seq
// must be one a writer actually claimed.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Add(&Record{Event: "e"})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, e := range rec.Snapshot() {
				if e.Seq == 0 || e.Seq > 1600 {
					t.Errorf("snapshot saw impossible seq %d", e.Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(rec.Snapshot()); got != 32 {
		t.Fatalf("final snapshot has %d records, want full ring of 32", got)
	}
}

// TestHandlerAttrFlattening: WithAttrs/WithGroup flatten into dotted
// keys in the ring record, and values coerce to JSON-stable shapes.
func TestHandlerAttrFlattening(t *testing.T) {
	log, rec := New(nil, slog.LevelInfo, 8)
	log.With("layer", "netmem").WithGroup("conn").Info("opened",
		"addr", "1.2.3.4:5",
		"err", errors.New("boom"),
		"ttl", 750*time.Millisecond,
		"epoch", uint64(9),
		slog.Group("peer", "id", 7),
	)
	events := rec.Snapshot()
	if len(events) != 1 {
		t.Fatalf("ring = %+v", events)
	}
	a := events[0].Attrs
	if a["layer"] != "netmem" || a["conn.addr"] != "1.2.3.4:5" {
		t.Fatalf("attrs = %#v", a)
	}
	if a["conn.err"] != "boom" || a["conn.ttl"] != "750ms" {
		t.Fatalf("coerced attrs = %#v", a)
	}
	if a["conn.epoch"] != uint64(9) || a["conn.peer.id"] != int64(7) {
		t.Fatalf("numeric attrs = %#v", a)
	}
}

// TestWriteFlightRoundTrip: the /flightz body parses back into a
// FlightDump carrying the incarnation, the reason and the ring.
func TestWriteFlightRoundTrip(t *testing.T) {
	log, rec := New(nil, slog.LevelInfo, 8)
	log.Warn("fenced", "epoch", 3)

	var buf bytes.Buffer
	if err := WriteFlight(&buf, rec, "on-demand"); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight body not JSON: %v\n%s", err, buf.String())
	}
	if dump.Incarnation != obs.IncarnationString() || dump.Reason != "on-demand" {
		t.Fatalf("dump header = %q %q", dump.Incarnation, dump.Reason)
	}
	if len(dump.Events) != 1 || dump.Events[0].Event != "fenced" {
		t.Fatalf("dump events = %+v", dump.Events)
	}
	// JSON numbers decode as float64; epoch 3 is exactly representable.
	if dump.Events[0].Attrs["epoch"] != float64(3) {
		t.Fatalf("epoch attr = %#v", dump.Events[0].Attrs)
	}
}

func TestLevelFromEnv(t *testing.T) {
	cases := map[string]slog.Level{
		"":      slog.LevelInfo,
		"info":  slog.LevelInfo,
		"debug": slog.LevelDebug,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
		"off":   levelOff,
		"bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := levelFromEnv(in); got != want {
			t.Errorf("levelFromEnv(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestHandleZeroTime: slog's rule is that a handler ignores a zero
// Record.Time; the ring stamps such a record with the wall clock rather
// than with UnixNano of year 1.
func TestHandleZeroTime(t *testing.T) {
	rec := NewRecorder(4)
	before := time.Now().UnixNano()
	if err := NewHandler(rec, nil).Handle(context.Background(), slog.Record{Message: "untimed"}); err != nil {
		t.Fatal(err)
	}
	if ts := rec.Snapshot()[0].TS; ts < before || ts > time.Now().UnixNano() {
		t.Fatalf("zero-time record stamped %d, want the wall clock (≥ %d)", ts, before)
	}
}

// TestHandleAllocFree: recording is free whatever the values' sizes, as
// long as they are scalars, strings or times — through the handler's own
// attrs and group too, and for an event wider than a slot's inline array
// once its slot has a spill slice (the warm-up lap). An error is the
// exception: its message is taken at record time and may allocate.
func TestHandleAllocFree(t *testing.T) {
	ctx, when := context.Background(), time.Unix(1700000000, 12345)
	boom := errors.New("boom")
	cases := []struct {
		name   string
		with   func(*slog.Logger) *slog.Logger
		emit   func(*slog.Logger)
		allocs float64
		key    string
		want   any
	}{
		{name: "debug_small_ints", key: "jobs", want: int64(3),
			emit: func(l *slog.Logger) { l.Debug("dispatch_steal", "shard", 1, "victim", 0, "jobs", 3) }},
		{name: "round_shape", key: "dur", want: "1.5s",
			emit: func(l *slog.Logger) {
				l.LogAttrs(ctx, slog.LevelDebug, "dispatch_round", slog.Int("shard", 1), slog.Int("jobs", 1<<40),
					slog.Int("slots", 1<<41), slog.Duration("dur", 1500*time.Millisecond), slog.Int("crashed", 1<<20))
			}},
		{name: "other_kinds", key: "u", want: uint64(1<<63 + 1),
			emit: func(l *slog.Logger) {
				l.LogAttrs(ctx, slog.LevelInfo, "kinds", slog.Uint64("u", 1<<63+1), slog.Float64("f", 2.5),
					slog.Bool("b", true), slog.Time("t", when), slog.String("s", "a string longer than a word"))
			}},
		{name: "with_attrs_and_group", key: "conn.epoch", want: int64(1 << 33),
			with: func(l *slog.Logger) *slog.Logger { return l.With("layer", "netmem").WithGroup("conn") },
			emit: func(l *slog.Logger) {
				l.LogAttrs(ctx, slog.LevelInfo, "opened", slog.Int("epoch", 1<<33), slog.String("addr", "1.2.3.4:5"))
			}},
		{name: "error", key: "err", want: "boom", allocs: 2,
			emit: func(l *slog.Logger) { l.LogAttrs(ctx, slog.LevelWarn, "failed", slog.Any("err", boom)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log, rec := New(nil, slog.LevelInfo, 8)
			if tc.with != nil {
				log = tc.with(log)
			}
			for i := 0; i < 8; i++ {
				tc.emit(log)
			}
			if got := testing.AllocsPerRun(100, func() { tc.emit(log) }); got > tc.allocs {
				t.Errorf("recording allocates %.0f times, want ≤ %.0f", got, tc.allocs)
			}
			events := rec.Snapshot()
			if got := events[len(events)-1].Attrs[tc.key]; got != tc.want {
				t.Errorf("attr %q read back as %#v, want %#v", tc.key, got, tc.want)
			}
		})
	}
}

// TestRecorderLapsUnderSnapshot: eight writers lap a four-slot ring
// while a reader snapshots it. Each record names its writer twice, in the
// event and in an attr, so a record torn between two writers shows as a
// mismatch; a snapshot's seqs are strictly increasing. The race detector
// is the other half of the assertion.
func TestRecorderLapsUnderSnapshot(t *testing.T) {
	log, rec := New(nil, slog.LevelInfo, 4)
	names := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				log.Debug(name, "writer", name, "i", i)
			}
		}()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var last uint64
			for _, e := range rec.Snapshot() {
				if e.Seq <= last {
					t.Errorf("snapshot seqs not increasing: %d after %d", e.Seq, last)
				}
				if last = e.Seq; e.Attrs["writer"] != e.Event {
					t.Errorf("torn record: event %q, attrs %v", e.Event, e.Attrs)
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if got := len(rec.Snapshot()); got != 4 {
		t.Fatalf("final snapshot has %d records, want the full ring of 4", got)
	}
}

// TestFlightDumpGolden: the dump's JSON is what it was before records
// were kept unformatted — testdata/flight_golden.json was written by the
// string-and-map recorder from these same records — incarnation aside.
func TestFlightDumpGolden(t *testing.T) {
	rec := NewRecorder(8)
	h := NewHandler(rec, nil)
	when := time.Date(2024, 2, 29, 12, 0, 0, 987654321, time.UTC)
	emit := func(h slog.Handler, level slog.Level, event string, attrs ...slog.Attr) {
		r := slog.NewRecord(when, level, event, 0)
		r.AddAttrs(attrs...)
		if err := h.Handle(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		when = when.Add(time.Millisecond)
	}
	emit(h, slog.LevelDebug, "dispatch_steal", slog.Int("shard", 1), slog.Int("victim", 0), slog.Int("jobs", 3))
	emit(h, slog.LevelInfo, "bare")
	emit(h.WithAttrs([]slog.Attr{slog.String("layer", "netmem")}).WithGroup("conn"), slog.LevelWarn, "lost",
		slog.String("addr", "1.2.3.4:5"), slog.Any("err", errors.New("connection reset")),
		slog.Duration("ttl", 750*time.Millisecond), slog.Uint64("epoch", 1<<53+1),
		slog.Group("peer", slog.Int("id", 7), slog.Bool("fenced", true)),
		slog.Time("since", when), slog.Float64("load", 0.25))
	emit(h, slog.LevelError+2, "fatal", slog.Any("detail", struct{ A, B int }{1, 2}), slog.Int64("delta", -1<<62))

	var buf bytes.Buffer
	if err := WriteFlight(&buf, rec, "golden"); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(buf.String(), obs.IncarnationString(), "INCARNATION")
	want, err := os.ReadFile("testdata/flight_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("flight dump changed:\n got %s\nwant %s", got, want)
	}
}

// TestRingFootprint: a full default ring is at most 64 KiB of slots, and
// a recorder nothing was logged to holds only its array of nil pointers.
func TestRingFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(slot{}) * DefaultFlightCap; sz > 64<<10 {
		t.Errorf("a full ring is %d bytes of slots (%d each), want ≤ 64 KiB", sz, unsafe.Sizeof(slot{}))
	}
	rec := NewRecorder(0)
	if len(rec.slots) != DefaultFlightCap {
		t.Fatalf("default ring has %d slots, want %d", len(rec.slots), DefaultFlightCap)
	}
	for i := range rec.slots {
		if rec.slots[i].Load() != nil {
			t.Fatalf("slot %d allocated before any record reached it", i)
		}
	}
	rec.Add(&Record{Event: "first"})
	if rec.slots[0].Load() == nil || rec.slots[1].Load() != nil {
		t.Fatal("the first record must allocate slot 0 and nothing else")
	}
}
