package jobd

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"atmostonce/internal/obs"
	"atmostonce/internal/obs/eventlog"
)

// scrapeMetrics GETs the server's /metrics, validates it with the
// exposition parser and returns the body with its samples by series.
func scrapeMetrics(t *testing.T, s *Server) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get("http://" + s.OpsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[series], _ = strconv.ParseFloat(value, 64)
		}
	}
	return string(body), samples
}

// TestLoadedServerExposition is what an operator sees of a default
// amo-jobd under its load generator: a volatile server that says so in
// its first line, 32 pipelined connections × 200 jobs and a subscriber
// with nothing failed, and a /metrics on which every accepted job is one
// submit, one completion and one streamed event, the tick counters moved,
// and the counters nothing here need touch — replay, re-execution, quota,
// inbox waits — are exposed all the same. The families live in the process-wide
// registry, so the counts are read as the load's difference.
func TestLoadedServerExposition(t *testing.T) {
	const conns, jobs = 32, 200
	reg := NewRegistry()
	reg.Register("noop", 1, func(context.Context, []byte) error { return nil })
	s, addr := testServer(t, Options{
		Registry:    reg,
		Tenants:     map[string]TenantLimits{"load": {}},
		MetricsAddr: "127.0.0.1:0",
	})
	listened := false
	for _, r := range eventlog.Default().Snapshot() {
		if r.Event == "jobd_listen" && r.Attrs["addr"] == addr {
			listened = true
			if r.Attrs["durable"] != false {
				t.Errorf("jobd_listen of a server on the default backend: %v, want durable=false", r.Attrs)
			}
		}
	}
	if !listened {
		t.Error("no jobd_listen record for this server")
	}

	_, before := scrapeMetrics(t, s)
	rep, err := RunLoad(LoadOptions{Addr: addr, Conns: conns, Jobs: jobs, Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Accepted != conns*jobs || rep.Events != conns*jobs {
		t.Fatalf("load: %v, want accepted=%d events=%d failed=0", rep, conns*jobs, conns*jobs)
	}
	body, after := scrapeMetrics(t, s)

	for _, c := range []struct {
		series string
		want   float64 // the load's difference
		orMore bool
	}{
		{`amo_jobd_submits_total{result="accepted"}`, conns * jobs, false},
		{`amo_jobd_completions_total{status="ok"}`, conns * jobs, false},
		{`amo_jobd_events_streamed_total`, conns * jobs, false},
		{`amo_jobd_ticks_total`, 1, true},
		{`amo_jobd_tick_requests_count`, 1, true},
		{`amo_jobd_inbox_waits_total`, 0, true},
		{`amo_jobd_replayed_descriptors_total`, 0, false},
		{`amo_jobd_reexecuted_jobs_total`, 0, false},
		{`amo_jobd_submits_total{result="quota"}`, 0, false},
	} {
		got, ok := after[c.series]
		if !ok {
			t.Errorf("/metrics has no %s", c.series)
			continue
		}
		if d := got - before[c.series]; d < c.want || (d > c.want && !c.orMore) {
			t.Errorf("%s moved by %v under the load, want %v (or more: %v)", c.series, d, c.want, c.orMore)
		}
	}
	for _, typ := range []string{
		"# TYPE amo_jobd_connections gauge",
		"# TYPE amo_jobd_tick_requests histogram",
	} {
		if !strings.Contains(body, typ) {
			t.Errorf("/metrics has no %q", typ)
		}
	}
}
