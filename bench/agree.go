//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeMain compares two result documents of the same commit, metric by
// metric and two-sided: the runs disagree where B differs from A by more
// than the metric's bound in either direction. Metrics without a bound
// (per-layer) are listed with their difference and no verdict.
func agreeMain(aPath, bPath, benchPath string, stdout, stderr io.Writer) int {
	var bench benchmarkJSON
	var a, b document
	for _, in := range []struct {
		path string
		v    any
	}{{benchPath, &bench}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(stderr, "bench: -agree:", err)
			return 2
		}
	}
	ha, hb := a.Header, b.Header
	switch {
	case a.BenchVersion != b.BenchVersion:
		fmt.Fprintf(stderr, "bench: -agree: benchmark versions differ (%d, %d)\n", a.BenchVersion, b.BenchVersion)
		return 2
	case ha.Storage != hb.Storage:
		fmt.Fprintf(stderr, "bench: -agree: storage differs (%s, %s)\n", ha.Storage, hb.Storage)
		return 2
	case ha.GOMAXPROCS != hb.GOMAXPROCS:
		fmt.Fprintf(stderr, "bench: -agree: gomaxprocs differs (%d, %d)\n", ha.GOMAXPROCS, hb.GOMAXPROCS)
		return 2
	case !reflect.DeepEqual(ha.Counts, hb.Counts) || ha.Trace != hb.Trace || ha.Seconds != hb.Seconds:
		fmt.Fprintln(stderr, "bench: -agree: the documents ran different job counts, run lengths or modes")
		return 2
	}
	bounds := make(map[string]float64)
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	byName := make(map[string]result)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	decl := reported(ha.Trace)
	code := 0
	fmt.Fprintf(stdout, "%-18s %-34s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s missing from B: DISAGREE\n", wa.Name)
			code = 1
			continue
		}
		for _, m := range decl {
			va, okA := wa.lookup(m.name)
			vb, okB := wb.lookup(m.name)
			if !okA && !okB {
				continue
			}
			diff := (vb.Value - va.Value) / va.Value
			if va.Value == vb.Value {
				diff = 0
			}
			verdict, boundText := "-", "-"
			if bound, gated := bounds[m.name]; gated {
				boundText = fmt.Sprintf("%.0f%%", 100*bound)
				verdict = "ok"
				if okA != okB || math.IsNaN(diff) || math.Abs(diff) > bound {
					verdict = "DISAGREE"
					code = 1
				}
			}
			fmt.Fprintf(stdout, "%-18s %-34s %14.6g %14.6g %+7.1f%% %6s  %s\n",
				wa.Name, m.name, va.Value, vb.Value, 100*diff, boundText, verdict)
		}
	}
	return code
}

// lookup finds a metric among a workload's gated metrics and its timings.
func (res *result) lookup(name string) (value, bool) {
	if v, ok := res.Metrics[name]; ok {
		return v, true
	}
	v, ok := res.Timings[name]
	return v, ok
}
