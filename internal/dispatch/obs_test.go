package dispatch

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"atmostonce/internal/obs"
)

// TestMetricsEndToEnd: a Metrics dispatcher populates its registry with
// counters that reconcile against Stats, and the exposition it would
// serve is valid Prometheus text.
func TestMetricsEndToEnd(t *testing.T) {
	d, err := New(Config{Shards: 2, Workers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()

	reg := d.Registry()
	if reg == nil {
		t.Fatal("Metrics set but Registry is nil")
	}
	snap := reg.Snapshot()
	var submitted, performed, rounds uint64
	for k, v := range snap {
		u, ok := v.(uint64)
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(k, "amo_dispatcher_submitted_jobs_total"):
			submitted += u
		case strings.HasPrefix(k, "amo_dispatcher_performed_jobs_total"):
			performed += u
		case strings.HasPrefix(k, "amo_dispatcher_rounds_total"):
			rounds += u
		}
	}
	if submitted != n || performed != n {
		t.Fatalf("registry saw submitted=%d performed=%d, want %d/%d", submitted, performed, n, n)
	}
	if rounds == 0 {
		t.Fatal("registry saw zero rounds after a flush")
	}
	st := d.Stats()
	if st.Rounds != rounds {
		t.Fatalf("registry rounds %d != Stats rounds %d", rounds, st.Rounds)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("dispatcher exposition does not parse: %v", err)
	}
	if !strings.Contains(buf.String(), "# TYPE amo_dispatcher_round_duration_seconds histogram") {
		t.Fatal("round-duration histogram missing from exposition")
	}
}

// TestLatencyQuantiles: enough submissions cross the 1-in-16 sample
// mask to yield non-zero latency quantiles.
func TestLatencyQuantiles(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok := d.LatencyQuantiles(0.5); ok {
		t.Fatal("quantiles reported before any job completed")
	}
	for i := 0; i < 64; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	qs, ok := d.LatencyQuantiles(0.5, 0.99)
	if !ok {
		t.Fatal("no latency samples after 64 jobs (mask samples 1 in 16)")
	}
	if len(qs) != 2 || qs[0] <= 0 || qs[1] < qs[0] {
		t.Fatalf("implausible quantiles %v", qs)
	}
}

// TestQueueDepthGaugeConsistent: the queue-depth gauge and Stats read
// the same locked snapshot, so after Flush both must agree on zero.
func TestQueueDepthGaugeConsistent(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 50; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	if depth := d.Stats().Shards[0].QueueDepth; depth != 0 {
		t.Fatalf("Stats queue depth %d after Flush", depth)
	}
	snap := d.Registry().Snapshot()
	if v, ok := snap[`amo_dispatcher_queue_depth{shard="0"}`]; !ok {
		t.Fatal("queue-depth gauge not in snapshot")
	} else if f := v.(float64); f != 0 {
		t.Fatalf("queue-depth gauge %v after Flush", f)
	}
}

// eventsOf collects one timeline's event codes in recorded order.
func eventsOf(tl obs.Timeline) []obs.TraceEvent {
	evs := make([]obs.TraceEvent, len(tl.Events))
	for i, e := range tl.Events {
		evs[i] = e.Event
	}
	return evs
}

// TestTraceOrdering: with full sampling over a durable dispatcher,
// every traced job's timeline obeys the at-most-once event grammar:
// Submitted first, Queued before Started, Started at most once and
// followed by Journaled, and exactly one terminal Resolved.
func TestTraceOrdering(t *testing.T) {
	dir := t.TempDir()
	const n = 60
	d, err := New(Config{
		Shards: 2, Workers: 2,
		NewMem: mmapFactory(dir), MaxJobs: n,
		TraceSampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < n; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()

	tls := d.Tracer().Timelines()
	if len(tls) != n {
		t.Fatalf("traced %d jobs, want %d at full sampling", len(tls), n)
	}
	for _, tl := range tls {
		evs := eventsOf(tl)
		if evs[0] != obs.TraceSubmitted {
			t.Fatalf("job %d: first event %v, want Submitted (%v)", tl.ID, evs[0], evs)
		}
		var started, resolved, queuedAt, startedAt int
		queuedAt, startedAt = -1, -1
		for i, ev := range evs {
			switch ev {
			case obs.TraceQueued:
				if queuedAt < 0 {
					queuedAt = i
				}
			case obs.TraceStarted:
				started++
				startedAt = i
			case obs.TraceJournaled:
				if startedAt < 0 || i < startedAt {
					t.Fatalf("job %d: Journaled before Started (%v)", tl.ID, evs)
				}
			case obs.TraceResolved:
				resolved++
				if i != len(evs)-1 {
					t.Fatalf("job %d: Resolved is not terminal (%v)", tl.ID, evs)
				}
			}
		}
		if started > 1 {
			t.Fatalf("job %d: Started %d times — at-most-once violated in trace (%v)", tl.ID, started, evs)
		}
		if resolved != 1 {
			t.Fatalf("job %d: %d Resolved events, want exactly 1 (%v)", tl.ID, resolved, evs)
		}
		if started == 1 && (queuedAt < 0 || queuedAt > startedAt) {
			t.Fatalf("job %d: Started without a preceding Queued (%v)", tl.ID, evs)
		}
	}
}

// TestTraceExpired: a job whose deadline passed before round assembly
// gets a terminal Expired event and never a Started one.
func TestTraceExpired(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h, err := d.Do(t.Context(), Task{
		Fn:       func(ctx context.Context) error { return nil },
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done()
	if !res.Expired {
		t.Fatalf("job not expired: %+v", res)
	}
	d.Flush()
	entries := d.Tracer().Timeline(h.ID)
	if len(entries) == 0 {
		t.Fatal("expired job left no timeline at full sampling")
	}
	var sawExpired bool
	for _, e := range entries {
		if e.Event == obs.TraceStarted {
			t.Fatal("expired job has a Started event")
		}
		if e.Event == obs.TraceExpired {
			sawExpired = true
		}
	}
	if !sawExpired {
		t.Fatal("expired job missing Expired event")
	}
}

// TestOpsEndpoint: a dispatcher with MetricsAddr serves /metrics with
// both the dispatcher's own registry and the process-default families
// (membackend registers there at init), /healthz flips to 503 on
// Close, and OpsAddr reports the bound port.
func TestOpsEndpoint(t *testing.T) {
	d, err := New(Config{Shards: 1, Workers: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := d.OpsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr set but OpsAddr is empty")
	}
	for i := 0; i < 20; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, b
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d on a live dispatcher", code)
	}
	if code, body := get("/statsz"); code != http.StatusOK || !bytes.Contains(body, []byte(`"stats"`)) {
		t.Fatalf("/statsz = %d %s on a live dispatcher", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	for _, family := range []string{"# TYPE amo_dispatcher_", "# TYPE amo_membackend_"} {
		if !bytes.Contains(body, []byte(family)) {
			t.Fatalf("/metrics missing %q family", family)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The listener closes with the dispatcher.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("ops endpoint still serving after Close")
	}
}
