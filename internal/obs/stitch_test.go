package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func ev(event string, shard int32, ts int64, inc string) TracezEvent {
	return TracezEvent{Event: event, Shard: shard, TS: ts, Inc: inc}
}

// TestStitchTimelines: events from several documents merge by job id,
// order by wall clock with ties keeping document order, and TUs is
// recomputed against the merged first event.
func TestStitchTimelines(t *testing.T) {
	incumbent := TracezDoc{Incarnation: "aaaa", Jobs: []TracezJob{
		{ID: 7, Events: []TracezEvent{
			ev("submitted", 0, 1000, "aaaa"),
			ev("started", 0, 3000, "aaaa"),
			ev("journaled", 0, 5000, "aaaa"),
		}},
		{ID: 9, Events: []TracezEvent{ev("submitted", 0, 2000, "aaaa")}},
	}}
	// A second incarnation that re-submitted the job while the first was
	// still journaling it, and died before starting anything.
	shortLived := TracezDoc{Incarnation: "cccc", Jobs: []TracezJob{
		{ID: 7, Events: []TracezEvent{ev("submitted", 1, 4000, "cccc")}},
	}}
	successor := TracezDoc{Incarnation: "bbbb", Jobs: []TracezJob{
		{ID: 7, Events: []TracezEvent{
			ev("submitted", 0, 9000, "bbbb"),
			ev("recovered", 0, 9500, "bbbb"),
			ev("resolved", 0, 9600, "bbbb"),
		}},
	}}

	jobs := StitchTimelines(incumbent, shortLived, successor)
	if len(jobs) != 2 {
		t.Fatalf("stitched %d jobs, want 2", len(jobs))
	}
	// Job 7's first event (TS 1000) precedes job 9's (TS 2000).
	if jobs[0].ID != 7 || jobs[1].ID != 9 {
		t.Fatalf("job order = %d, %d; want 7, 9", jobs[0].ID, jobs[1].ID)
	}
	j := jobs[0]
	want := []string{"submitted", "started", "submitted", "journaled", "submitted", "recovered", "resolved"}
	if len(j.Events) != len(want) {
		t.Fatalf("job 7 has %d merged events, want %d: %+v", len(j.Events), len(want), j.Events)
	}
	for i, e := range j.Events {
		if e.Event != want[i] {
			t.Fatalf("event[%d] = %q, want %q", i, e.Event, want[i])
		}
	}
	// The other process's record (TS 4000) interleaves between the
	// incumbent's started (3000) and journaled (5000).
	if j.Events[2].Inc != "cccc" || j.Events[2].Shard != 1 {
		t.Fatalf("second incarnation's record misplaced: %+v", j.Events[2])
	}
	// TUs recomputed against merged t0 = 1000.
	if j.Events[0].TUs != 0 || j.Events[3].TUs != 4.0 {
		t.Fatalf("TUs = %v, %v; want 0, 4", j.Events[0].TUs, j.Events[3].TUs)
	}
	if got := j.Incarnations(); len(got) != 3 || got[0] != "aaaa" || got[1] != "cccc" || got[2] != "bbbb" {
		t.Fatalf("Incarnations() = %v", got)
	}
	if err := CheckStitched(j); err != nil {
		t.Fatalf("legal failover timeline rejected: %v", err)
	}
}

// TestStitchTimelinesTieKeepsDocOrder: equal timestamps must not reorder
// one process's records against each other.
func TestStitchTimelinesTieKeepsDocOrder(t *testing.T) {
	doc := TracezDoc{Incarnation: "aaaa", Jobs: []TracezJob{
		{ID: 1, Events: []TracezEvent{
			ev("submitted", 0, 100, "aaaa"),
			ev("queued", 0, 100, "aaaa"),
			ev("started", 0, 100, "aaaa"),
		}},
	}}
	j := StitchTimelines(doc)[0]
	if j.Events[0].Event != "submitted" || j.Events[1].Event != "queued" || j.Events[2].Event != "started" {
		t.Fatalf("tie broke document order: %+v", j.Events)
	}
}

// TestCheckStitchedViolations: each grammar rule rejects its violation.
func TestCheckStitchedViolations(t *testing.T) {
	cases := []struct {
		name    string
		events  []TracezEvent
		wantErr string
	}{
		{
			// The at-most-once guarantee itself: a second started in a
			// different incarnation is a duplicate execution.
			name: "started twice across incarnations",
			events: []TracezEvent{
				ev("started", 0, 1, "aaaa"),
				ev("started", 0, 2, "bbbb"),
			},
			wantErr: "started 2 times",
		},
		{
			name: "event after terminal in same incarnation",
			events: []TracezEvent{
				ev("resolved", 0, 1, "aaaa"),
				ev("journaled", 0, 2, "aaaa"),
			},
			wantErr: "after a terminal event",
		},
		{
			name: "recovered incarnation starts the job",
			events: []TracezEvent{
				ev("recovered", 0, 1, "bbbb"),
				ev("started", 0, 2, "bbbb"),
			},
			wantErr: "after it recovered",
		},
		{
			name: "client journaled before started",
			events: []TracezEvent{
				ev("journaled", 0, 1, "aaaa"),
			},
			wantErr: "journaled before started",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckStitched(TracezJob{ID: 1, Events: tc.events})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckStitchedLegal: a shape that must pass — a successor
// re-resolving a job its predecessor resolved (each life re-runs the
// stream).
func TestCheckStitchedLegal(t *testing.T) {
	legal := [][]TracezEvent{
		{
			ev("started", 0, 1, "aaaa"), ev("journaled", 0, 2, "aaaa"), ev("resolved", 0, 3, "aaaa"),
			ev("submitted", 0, 4, "bbbb"), ev("recovered", 0, 5, "bbbb"), ev("resolved", 0, 6, "bbbb"),
		},
	}
	for i, events := range legal {
		if err := CheckStitched(TracezJob{ID: uint64(i + 1), Events: events}); err != nil {
			t.Fatalf("legal timeline %d rejected: %v", i, err)
		}
	}
}

// TestNewTracezDocRoundTrip: a live tracer's document survives
// JSON round-trip and carries this process's incarnation on every event.
func TestNewTracezDocRoundTrip(t *testing.T) {
	tr := NewTracer(1, 16)
	tr.Record(42, TraceSubmitted, 0)
	tr.Record(42, TraceStarted, 0)
	tr.Record(42, TraceJournaled, 3)

	doc := NewTracezDoc(tr)
	if doc.Incarnation != IncarnationString() {
		t.Fatalf("doc incarnation = %q, want %q", doc.Incarnation, IncarnationString())
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTracezDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 1 || back.Jobs[0].ID != 42 || len(back.Jobs[0].Events) != 3 {
		t.Fatalf("round trip = %s", b)
	}
	for _, e := range back.Jobs[0].Events {
		if e.Inc != IncarnationString() {
			t.Fatalf("event inc = %q, want %q", e.Inc, IncarnationString())
		}
		if e.TS == 0 {
			t.Fatal("event lost its wall-clock stamp")
		}
	}
	if back.Jobs[0].Events[2].Shard != 3 {
		t.Fatalf("shard = %d, want 3", back.Jobs[0].Events[2].Shard)
	}

	if got := NewTracezDoc(nil); got.Incarnation == "" || got.Jobs == nil || len(got.Jobs) != 0 {
		t.Fatalf("nil tracer doc = %+v", got)
	}
	if _, err := ParseTracezDoc([]byte("{not json")); err == nil {
		t.Fatal("ParseTracezDoc accepted garbage")
	}
}
