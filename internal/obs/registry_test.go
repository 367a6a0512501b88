package obs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRegistryGetOrCreate: same (name, labels) returns the same metric;
// different labels are distinct series of one family.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("amo_test_total", "h", "shard", "0")
	b := r.Counter("amo_test_total", "h", "shard", "0")
	if a != b {
		t.Fatal("same series returned distinct counters")
	}
	c := r.Counter("amo_test_total", "h", "shard", "1")
	if a == c {
		t.Fatal("distinct label sets share a counter")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 3 {
		t.Fatalf("counter = %d, want 3", a.Value())
	}
}

// TestRegistryKindMismatch: re-registering a name as a different kind
// panics (a programming error, not a runtime condition).
func TestRegistryKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("amo_test_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("amo_test_total", "h")
}

// TestRegistryConcurrent: registration and both expositions are safe
// side by side (run under -race). Every writer call is a label set's
// first use — an append to its family's series list, and every eighth a
// new family — while the scrapers read without pause until the last
// writer is done, so the overlap is the test's shape, not its luck.
func TestRegistryConcurrent(t *testing.T) {
	const writers, perWriter = 4, 200
	r := NewRegistry()
	var writing, scraping sync.WaitGroup
	start, done := make(chan struct{}), make(chan struct{})
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int) {
			defer writing.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				gs, is := strconv.Itoa(g), strconv.Itoa(i)
				r.Counter("amo_test_total", "h", "g", gs, "i", is).Inc()
				r.Gauge("amo_test_depth", "h").Set(float64(i))
				r.Histogram("amo_test_lat_"+strconv.Itoa(i/8), "h", 1, "g", gs, "i", is).Observe(uint64(i))
				r.CounterFunc("amo_test_pulled_total", "h", func() uint64 { return 1 }, "g", gs, "i", is)
			}
		}(g)
	}
	for _, scrape := range []func(){
		func() { r.Snapshot() },
		func() { r.WritePrometheus(io.Discard) },
	} {
		scraping.Add(1)
		go func() {
			defer scraping.Done()
			<-start
			for {
				select {
				case <-done:
					return
				default:
					scrape()
				}
			}
		}()
	}
	close(start)
	writing.Wait()
	close(done)
	scraping.Wait()

	var total uint64
	for key, v := range r.Snapshot() {
		if strings.HasPrefix(key, "amo_test_total{") || strings.HasPrefix(key, "amo_test_pulled_total{") {
			total += v.(uint64)
		}
	}
	if want := uint64(2 * writers * perWriter); total != want {
		t.Fatalf("snapshot totals %d over the two counter families, want %d", total, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("exposition after concurrent registration: %v", err)
	}
	if want := 3 + perWriter/8; st.Families != want {
		t.Fatalf("exposition has %d families, want %d", st.Families, want)
	}
}

// TestGaugeAdd: concurrent float adds converge exactly (CAS loop).
func TestGaugeAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
}

// TestHistogramSnapshotMergesSeries: HistogramSnapshot folds every
// label set of one family into a single mergeable snapshot.
func TestHistogramSnapshotMergesSeries(t *testing.T) {
	r := NewRegistry()
	r.Histogram("amo_test_lat", "h", 1, "shard", "0").Observe(5)
	r.Histogram("amo_test_lat", "h", 1, "shard", "1").Observe(100)
	snap, ok := r.HistogramSnapshot("amo_test_lat")
	if !ok || snap.Count != 2 {
		t.Fatalf("merged snapshot count = %d (ok=%v), want 2", snap.Count, ok)
	}
	if _, ok := r.HistogramSnapshot("amo_absent"); ok {
		t.Fatal("HistogramSnapshot invented an absent family")
	}
}
