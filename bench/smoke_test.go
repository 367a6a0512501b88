//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// runBench runs the benchmark in-process and returns its standard output.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	if _, err := os.Stat(".bench_tmp"); !os.IsNotExist(err) {
		t.Fatalf("bench %v left .bench_tmp behind (stat: %v)", args, err)
	}
	return stdout.String()
}

func lastLine(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return lines[len(lines)-1]
}

// The smoke run of every workload, untraced and traced: it exits 0, and
// for every workload it reports exactly the declared metrics that apply —
// each once, with its unit — and nothing else.
func TestSmoke(t *testing.T) {
	for _, mode := range []struct {
		trace string
		decl  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		out := runBench(t, "-smoke", "-trace", mode.trace)
		var doc document
		if err := json.Unmarshal([]byte(lastLine(out)), &doc); err != nil {
			t.Fatalf("trace=%s: last line is not the result document: %v", mode.trace, err)
		}
		h := doc.Header
		if h.NProc == 0 || h.GOMAXPROCS == 0 || h.Go == "" || h.Commit == "" || h.Kernel == "" || h.Storage == "" || len(h.Counts) != len(allWorkloads) {
			t.Errorf("trace=%s: incomplete run header: %+v", mode.trace, h)
		}
		if len(doc.Workloads) != len(allWorkloads) {
			t.Fatalf("trace=%s: %d workloads reported, want %d", mode.trace, len(doc.Workloads), len(allWorkloads))
		}
		for i, res := range doc.Workloads {
			if res.Name != allWorkloads[i] || !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.WallS <= 0 {
				t.Errorf("trace=%s: workload %d: %+v", mode.trace, i, res)
			}
			section := out[strings.Index(out, "== "+res.Name+":"):]
			if end := strings.Index(section[1:], "\n== "); end >= 0 {
				section = section[:end+1]
			}
			want := 0
			for _, m := range mode.decl {
				if !nameRE.MatchString(m.name) {
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
				}
				v, ok := res.Metrics[m.name]
				if !m.appliesTo(res.Name) {
					if ok {
						t.Errorf("%s reports %s, which does not apply to it", res.Name, m.name)
					}
					continue
				}
				want++
				if !ok || v.Unit != m.unit {
					t.Errorf("%s: metric %s: got %+v (present=%v), want unit %s", res.Name, m.name, v, ok, m.unit)
				}
				printed := regexp.MustCompile(`(?m)^ +` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `\b`)
				if n := len(printed.FindAllString(section, -1)); n != 1 {
					t.Errorf("%s: %s is printed %d times with its unit, want once", res.Name, m.name, n)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s reports %d metrics, %d are declared for it", res.Name, len(res.Metrics), want)
			}
			if mode.trace == "1" && (res.Budget == nil || len(res.Budget.Stages) != 4) {
				t.Errorf("%s: traced run without a four-stage budget: %+v", res.Name, res.Budget)
			}
			if mode.trace == "0" {
				for _, m := range timings {
					if v, ok := res.Timings[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
						t.Errorf("%s: timing %s: got %+v (present=%v)", res.Name, m.name, v, ok)
					}
				}
				if len(res.Timings) != len(timings) {
					t.Errorf("%s reports %d timings, want %d", res.Name, len(res.Timings), len(timings))
				}
			}
		}
	}
}

// For one workload the last line is the object a driver reads: exactly
// four keys, and every declared metric of the mode — a per-layer metric
// that does not apply reads 0.
func TestSingleWorkloadLine(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, mode := range []struct {
		args []string
		decl []metric
	}{
		{[]string{"--workload", wJobdOpen, "--seed", "7", "--seconds", "1", "--trace", "0", "-smoke"}, endToEnd},
		{[]string{"--workload", wJobdOpen, "--seed", "7", "--seconds", "1", "--trace", "1", "-smoke", "-spans", spans}, perLayer},
	} {
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lastLine(runBench(t, mode.args...))), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("result object has %d keys, want correct, attempted, failed, metrics", len(line))
		}
		var metrics map[string]value
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" || len(metrics) != len(mode.decl) {
			t.Errorf("correct=%s failed=%s, %d metrics for %d declared", line["correct"], line["failed"], len(metrics), len(mode.decl))
		}
		for _, m := range mode.decl {
			v, ok := metrics[m.name]
			if !ok || v.Unit != m.unit || (!m.appliesTo(wJobdOpen) && v.Value != 0) {
				t.Errorf("metric %s: %+v (present=%v)", m.name, v, ok)
			}
		}
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"span":"job"`, `"span":"submit_call"`, `"span":"payload"`, `"span":"run_to_done"`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("span file has no %s", want)
		}
	}
}

// BENCHMARK.json repeats the declarations in metrics.go and main.go; the
// two must not drift apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	var bench benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bench.Command, " ") != "go run ./bench" || len(bench.Paths) != 1 || bench.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", bench.Command, bench.Paths)
	}
	defs := workloads()
	if len(bench.Workloads) != len(defs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bench.Workloads), len(defs))
	}
	for i, w := range defs {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, bench.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []declared, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %s %s %s %v", kind, i, g, m.name, m.unit, m.better, m.bound)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, storage string, allocs float64) string {
		doc := document{BenchVersion: benchVersion, Header: header{Storage: storage, GOMAXPROCS: 2,
			Counts: map[string][2]int{wEngine: {100, 10}}},
			Workloads: []result{{Name: wEngine, Metrics: map[string]value{
				"allocs_per_job": {Value: allocs, Unit: "count"},
				"setup_s":        {Value: 0.5, Unit: "s"},
			}, Timings: map[string]value{
				// Not gated: however far apart, never a disagreement.
				"jobs_per_s": {Value: 1000 * allocs, Unit: "jobs/s"},
			}}}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", "memfd", 3.00)
	for _, c := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"within the bound", write("b.json", "memfd", 3.10), 0, "ok"},
		{"better by more than the bound", write("c.json", "memfd", 2.70), 1, "DISAGREE"},
		{"worse by more than the bound", write("d.json", "memfd", 3.30), 1, "DISAGREE"},
		{"other storage", write("e.json", "disk", 3.00), 2, "storage differs"},
	} {
		var stdout, stderr bytes.Buffer
		code := agreeMain(base, c.b, filepath.Join("..", "BENCHMARK.json"), &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String()+stderr.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s%s", c.name, code, c.code, c.want, stdout.String(), stderr.String())
		}
	}
}
