package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with every metric kind and fixed
// values, so its exposition is byte-for-byte reproducible.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("amo_test_jobs_total", "Jobs processed.", "shard", "0").Add(42)
	r.Counter("amo_test_jobs_total", "Jobs processed.", "shard", "1").Add(7)
	r.Gauge("amo_test_queue_depth", "Jobs resident in the queue.", "shard", "0").Set(3)
	r.CounterFunc("amo_test_pulled_total", "Pull-style counter.", func() uint64 { return 9 })
	r.GaugeFunc("amo_test_temperature_ratio", "Pull-style gauge.", func() float64 { return 0.5 })
	h := r.Histogram("amo_test_latency_seconds", "Sampled latency.", 1e-9)
	for _, v := range []uint64{5, 5, 17, 1000, 1_000_000} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusGolden locks the exposition format against the checked-in
// golden file. Regenerate with -update on deliberate format changes.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.prom")
	if os.Getenv("OBS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\nrun with OBS_UPDATE_GOLDEN=1 to regenerate", buf.Bytes(), want)
	}
}

// TestParseOwnExposition: the validator accepts what WritePrometheus
// produces and counts its families and series.
func TestParseOwnExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Families != 5 {
		t.Fatalf("parsed %d families, want 5", st.Families)
	}
	// 2 counter series + 1 gauge + 1 counterfunc + 1 gaugefunc +
	// histogram (4 non-empty buckets + Inf + sum + count = 7).
	if st.Series != 12 {
		t.Fatalf("parsed %d series, want 12", st.Series)
	}
}

// TestWritePrometheusAllocs: a scrape formats into one buffer it owns —
// the view, the buffer and little else, however many lines it writes —
// and the golden file's blind spots (an escaped label value, le behind a
// histogram's own labels) still render as the format says.
func TestWritePrometheusAllocs(t *testing.T) {
	r := goldenRegistry()
	r.Counter("amo_test_paths_total", "Escaped label.", "path", "a\\b\"c\nd").Inc()
	for _, op := range []string{"read", "write"} {
		r.Histogram("amo_test_rpc_seconds", "Labeled histogram family.", 1e-9, "op", op).Observe(1000)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`amo_test_paths_total{path="a\\b\"c\nd"} 1`,
		`amo_test_rpc_seconds_bucket{op="write",le="+Inf"} 1`,
		`amo_test_rpc_seconds_count{op="read"} 1`,
		`amo_test_latency_seconds_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, buf.String())
		}
	}
	lines := strings.Count(buf.String(), "\n")
	if _, err := ParseExposition(&buf); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() { r.WritePrometheus(io.Discard) })
	if avg > 8 {
		t.Fatalf("a scrape of %d lines allocates %.0f times, want ≤ 8", lines, avg)
	}
}

// TestParseExpositionRejects: malformed expositions fail with the
// offending line.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":            "# TYPE 9bad counter\n9bad 1\n",
		"no value":            "# TYPE amo_x counter\namo_x\n",
		"bad value":           "# TYPE amo_x counter\namo_x pizza\n",
		"unbalanced braces":   "# TYPE amo_x counter\namo_x{shard=\"0\" 1\n",
		"unquoted label":      "# TYPE amo_x counter\namo_x{shard=0} 1\n",
		"sample before TYPE":  "amo_x 1\n",
		"duplicate series":    "# TYPE amo_x counter\namo_x 1\namo_x 2\n",
		"unknown type":        "# TYPE amo_x flavor\n",
		"non-cumulative hist": "# TYPE amo_h histogram\namo_h_bucket{le=\"1\"} 5\namo_h_bucket{le=\"2\"} 3\n",
		"le not ascending":    "# TYPE amo_h histogram\namo_h_bucket{le=\"2\"} 1\namo_h_bucket{le=\"1\"} 2\n",
		"empty input":         "",
		// Comment-grammar and ordering paths.
		"truncated HELP":       "# HELP amo_x\namo_x 1\n",
		"TYPE missing type":    "# TYPE amo_x\namo_x 1\n",
		"duplicate TYPE":       "# TYPE amo_x counter\n# TYPE amo_x counter\namo_x 1\n",
		"TYPE on bad name":     "# TYPE amo-x counter\n",
		"HELP only, no TYPE":   "# HELP amo_x About x.\namo_x 1\n",
		"dup series w/ labels": "# TYPE amo_x counter\namo_x{s=\"0\"} 1\namo_x{s=\"0\"} 2\n",
		// Label-grammar paths.
		"unterminated value": "# TYPE amo_x counter\namo_x{s=\"0} 1\n",
		"missing comma":      "# TYPE amo_x counter\namo_x{a=\"0\"b=\"1\"} 1\n",
		"bad label name":     "# TYPE amo_x counter\namo_x{9s=\"0\"} 1\n",
		// Histogram-grammar paths.
		"bucket without le": "# TYPE amo_h histogram\namo_h_bucket{s=\"0\"} 1\n",
		"bad le bound":      "# TYPE amo_h histogram\namo_h_bucket{le=\"pizza\"} 1\namo_h_bucket{le=\"wide\"} 2\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
}
