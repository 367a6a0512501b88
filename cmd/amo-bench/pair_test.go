package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fakeBenchEnv, set to a directory, makes the test binary a fake bench:
// it logs its invocation there and prints fixed lines in bench's format.
const fakeBenchEnv = "AMO_BENCH_FAKE_LOG"

func TestMain(m *testing.M) {
	if dir := os.Getenv(fakeBenchEnv); dir != "" {
		os.Exit(fakeBench(dir))
	}
	os.Exit(m.Run())
}

// fakeRuns are the fake's results, by the name it is run under and its
// own run count: setup_s is even, allocs_per_job worse past its bound,
// heap_mb a resolved gain, jobs_per_s won three pairs in four and
// cpu_us_per_job all four by less than the parent's quartile distance.
// The change's third run is not correct.
var fakeRuns = map[string][4]struct {
	setup, allocs, heap, jobs, cpu float64
	failed                         int
}{
	"parent": {{100e-6, 0.02, 4.30, 100000, 9, 0}, {200e-6, 0.02, 4.31, 100000, 10, 0}, {300e-6, 0.02, 4.32, 100000, 11, 0}, {400e-6, 0.02, 4.33, 100000, 12, 0}},
	"change": {{150e-6, 0.03, 4.00, 110000, 8.9, 0}, {190e-6, 0.03, 4.01, 110000, 9.9, 0}, {310e-6, 0.03, 4.02, 110000, 10.9, 2}, {390e-6, 0.03, 4.03, 90000, 11.9, 0}},
}

func fakeBench(dir string) int {
	side := filepath.Base(os.Args[0])
	logged, _ := os.ReadDir(dir)
	i := 0
	for _, e := range logged {
		if strings.HasSuffix(e.Name(), side) {
			i++
		}
	}
	note := strings.Join(os.Args[1:], " ") + " GOMAXPROCS=" + os.Getenv("GOMAXPROCS")
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02d-%s", len(logged), side)), []byte(note), 0o644); err != nil {
		return 2
	}
	r := fakeRuns[side][i]
	fmt.Printf("bench v1 fake\n\n== w: 3 epochs in 1.0s, attempted 100, failed %d, correct=%v\n", r.failed, r.failed == 0)
	fmt.Printf("   setup_s %g s\n   allocs_per_job %g count\n   heap_mb %g MiB\n", r.setup, r.allocs, r.heap)
	fmt.Printf("   jobs_per_s %g jobs/s   (not gated)\n   done_p50_us 150 us   (not gated)\n", r.jobs)
	fmt.Printf("   done_p90_us 250 us   (not gated)\n   cpu_us_per_job %g us   (not gated)\n", r.cpu)
	fmt.Printf(`{"correct":%v,"attempted":100,"failed":%d,"metrics":{"allocs_per_job":{"value":%g,"unit":"count"},"heap_mb":{"value":%g,"unit":"MiB"},"setup_s":{"value":%g,"unit":"s"}}}`+"\n",
		r.failed == 0, r.failed, r.allocs, r.heap, r.setup)
	if r.failed > 0 {
		return 1 // as bench exits on a run that is not correct
	}
	return 0
}

// TestPair drives -pair against the fake bench, under the names parent and
// change: the order of the runs, what each is given, the table's win
// counts and all three verdicts, and the flagged run.
func TestPair(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bins, log := t.TempDir(), t.TempDir()
	for _, side := range sides {
		if err := os.Symlink(exe, filepath.Join(bins, side)); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv(fakeBenchEnv, log)
	t.Chdir("../..") // BENCHMARK.json's bounds
	var out strings.Builder
	err = run([]string{"-pair", filepath.Join(bins, "parent"), filepath.Join(bins, "change"),
		"-workload", "w", "-n", "4", "-seed", "5", "-seconds", "0.5", "-gomaxprocs", "3"}, &out)
	t.Log("\n" + out.String())
	if err == nil || !strings.Contains(err.Error(), "1 of 8 runs") {
		t.Errorf("-pair with a run that is not correct returned %v, want an error counting it", err)
	}

	logged, _ := os.ReadDir(log)
	var order []string
	for _, e := range logged {
		order = append(order, strings.SplitN(e.Name(), "-", 2)[1])
		note, _ := os.ReadFile(filepath.Join(log, e.Name()))
		if want := "-workload w -seed 5 -seconds 0.5 GOMAXPROCS=3"; string(note) != want {
			t.Errorf("run %s was given %q, want %q", e.Name(), note, want)
		}
	}
	if want := []string{"parent", "change", "change", "parent", "parent", "change", "change", "parent"}; !slices.Equal(order, want) {
		t.Errorf("runs went %v, want %v", order, want)
	}

	rows := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = l
		}
	}
	for _, want := range []struct{ metric, won, verdict string }{
		{"setup_s", "2/4", "unresolved"},
		{"allocs_per_job", "0/4", "worse than bound"},
		{"heap_mb", "4/4", "gain resolved"},
		{"jobs_per_s", "3/4", "unresolved"},
		{"cpu_us_per_job", "4/4", "unresolved"},
		{"done_p50_us", "0/4", "unresolved"},
	} {
		if row := rows[want.metric]; !strings.Contains(row, " "+want.won+" ") || !strings.HasSuffix(row, want.verdict) {
			t.Errorf("%s row %q, want %s won and %q", want.metric, row, want.won, want.verdict)
		}
	}
	if row := rows["heap_mb"]; !strings.Contains(row, "4.315 [4.307–4.322] (4.3–4.33)") || !strings.Contains(row, "4.015 [4.008–4.022] (4–4.03)") {
		t.Errorf("heap_mb row %q, want each side's median [quartiles] (range)", row)
	}
	if strings.Contains(out.String(), "unchanged") {
		t.Error("a verdict reads unchanged")
	}
	if runs := strings.Count(out.String(), "\n  "); runs != 8 || !strings.Contains(out.String(), "  3 change: 0.00031 0.03 4.02 110000 10.9 150 250  FLAGGED correct=false failed=2") {
		t.Errorf("the run list has %d runs, want 8 with the change's third flagged", runs)
	}
}
