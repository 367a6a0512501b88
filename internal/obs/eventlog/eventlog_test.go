package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

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
