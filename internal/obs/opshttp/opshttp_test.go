package opshttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeEndpoints: every route answers, /metrics parses as valid
// exposition, /statsz and /tracez are valid JSON with the expected
// shape, and /healthz reflects the health func.
func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("amo_test_jobs_total", "Jobs.", "shard", "0").Add(5)
	reg.Histogram("amo_test_latency_seconds", "Latency.", 1e-9).Observe(1500)
	tr := obs.NewTracer(1, 64)
	tr.Record(7, obs.TraceSubmitted, 0)
	tr.Record(7, obs.TraceStarted, 0)
	var healthy atomic.Bool
	srv, err := Serve("127.0.0.1:0", Options{
		Registries: []*obs.Registry{reg, obs.Default},
		Statsz:     func() any { return map[string]int{"pending": 3} },
		Healthz: func() error {
			if !healthy.Load() {
				return errors.New("still warming up")
			}
			return nil
		},
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while unhealthy: %d %s", code, body)
	}
	healthy.Store(true)
	if code, body = get(t, base+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	st, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics not valid exposition: %v\n%s", err, body)
	}
	if st.Series == 0 {
		t.Fatal("/metrics served no series")
	}

	code, body = get(t, base+"/statsz")
	if code != 200 {
		t.Fatalf("/statsz = %d", code)
	}
	var statsz struct {
		Metrics map[string]any `json:"metrics"`
		Stats   map[string]int `json:"stats"`
	}
	if err := json.Unmarshal(body, &statsz); err != nil {
		t.Fatalf("/statsz not JSON: %v\n%s", err, body)
	}
	if statsz.Stats["pending"] != 3 {
		t.Fatalf("/statsz stats = %v", statsz.Stats)
	}
	if _, ok := statsz.Metrics[`amo_test_jobs_total{shard="0"}`]; !ok {
		t.Fatalf("/statsz metrics missing counter: %v", statsz.Metrics)
	}

	code, body = get(t, base+"/tracez")
	if code != 200 {
		t.Fatalf("/tracez = %d", code)
	}
	var tracez struct {
		Jobs []struct {
			ID     uint64 `json:"id"`
			Events []struct {
				Event string  `json:"event"`
				TUs   float64 `json:"t_us"`
			} `json:"events"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &tracez); err != nil {
		t.Fatalf("/tracez not JSON: %v\n%s", err, body)
	}
	if len(tracez.Jobs) != 1 || tracez.Jobs[0].ID != 7 || len(tracez.Jobs[0].Events) != 2 {
		t.Fatalf("/tracez = %s", body)
	}
	if tracez.Jobs[0].Events[0].Event != "submitted" || tracez.Jobs[0].Events[1].Event != "started" {
		t.Fatalf("/tracez event names = %s", body)
	}

	if code, _ = get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestForensicEndpoints: /tracez's id= and limit= filters (including
// their 400 paths) and the /flightz flight-recorder dump.
func TestForensicEndpoints(t *testing.T) {
	tr := obs.NewTracer(1, 64)
	tr.Record(7, obs.TraceSubmitted, 0)
	tr.Record(7, obs.TraceStarted, 0)
	tr.Record(9, obs.TraceSubmitted, 1)
	tr.Record(11, obs.TraceSubmitted, 1)
	srv, err := Serve("127.0.0.1:0", Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	parse := func(body []byte) obs.TracezDoc {
		t.Helper()
		doc, err := obs.ParseTracezDoc(body)
		if err != nil {
			t.Fatalf("tracez body invalid: %v\n%s", err, body)
		}
		return doc
	}

	code, body := get(t, base+"/tracez")
	if code != 200 {
		t.Fatalf("/tracez = %d", code)
	}
	doc := parse(body)
	if doc.Incarnation != obs.IncarnationString() || len(doc.Jobs) != 3 {
		t.Fatalf("/tracez = %s", body)
	}
	for _, j := range doc.Jobs {
		for _, e := range j.Events {
			if e.Inc != doc.Incarnation || e.TS == 0 {
				t.Fatalf("event missing stitching fields: %+v", e)
			}
		}
	}

	code, body = get(t, base+"/tracez?id=7")
	if code != 200 {
		t.Fatalf("/tracez?id=7 = %d", code)
	}
	if doc = parse(body); len(doc.Jobs) != 1 || doc.Jobs[0].ID != 7 || len(doc.Jobs[0].Events) != 2 {
		t.Fatalf("/tracez?id=7 = %s", body)
	}

	code, body = get(t, base+"/tracez?id=999")
	if code != 200 {
		t.Fatalf("/tracez?id=999 = %d", code)
	}
	if doc = parse(body); len(doc.Jobs) != 0 {
		t.Fatalf("/tracez?id=999 should filter to nothing: %s", body)
	}

	code, body = get(t, base+"/tracez?limit=2")
	if code != 200 {
		t.Fatalf("/tracez?limit=2 = %d", code)
	}
	if doc = parse(body); len(doc.Jobs) != 2 {
		t.Fatalf("/tracez?limit=2 = %s", body)
	}

	for _, bad := range []string{"/tracez?id=banana", "/tracez?id=-1", "/tracez?limit=banana", "/tracez?limit=-1"} {
		if code, body = get(t, base+bad); code != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", bad, code, body)
		}
	}

	code, body = get(t, base+"/flightz")
	if code != 200 {
		t.Fatalf("/flightz = %d", code)
	}
	var dump eventlog.FlightDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/flightz not a FlightDump: %v\n%s", err, body)
	}
	if dump.Incarnation != obs.IncarnationString() || dump.Reason != "on-demand" {
		t.Fatalf("/flightz header = %q %q", dump.Incarnation, dump.Reason)
	}
	// The process-default ring has at least the records this test's
	// logging produced — assert shape, not contents.
	for _, e := range dump.Events {
		if e.Event == "" || e.Seq == 0 {
			t.Fatalf("/flightz malformed record: %+v", e)
		}
	}
}
