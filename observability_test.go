package atmostonce

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"atmostonce/internal/obs"
)

// TestOpsEndpointFamilies: a public-API dispatcher with MetricsAddr
// serves valid Prometheus exposition covering all three layers —
// dispatcher, netmem and membackend. The netmem and membackend
// families register at package init (the root package links netmem for
// the "net:" backend), so they are present zero-valued even on an
// in-process dispatcher that never opens a connection.
func TestOpsEndpointFamilies(t *testing.T) {
	d, err := NewDispatcher(DispatcherConfig{
		Shards:          2,
		MetricsAddr:     "127.0.0.1:0",
		TraceSampleRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	addr := d.OpsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr set but OpsAddr is empty")
	}
	for i := 0; i < 200; i++ {
		if _, err := d.Do(context.Background(), bare(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v", err)
	}
	if stats.Families == 0 || stats.Series == 0 {
		t.Fatalf("empty exposition: %+v", stats)
	}
	for _, family := range []string{
		"# TYPE amo_dispatcher_submitted_jobs_total counter",
		"# TYPE amo_dispatcher_submit_to_done_seconds histogram",
		"# TYPE amo_netmem_client_requests_total counter",
		"# TYPE amo_membackend_opens_total counter",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	if qs, ok := d.LatencyQuantiles(0.5, 0.99); !ok || len(qs) != 2 {
		t.Fatalf("LatencyQuantiles over the public API: ok=%v qs=%v", ok, qs)
	}
}
