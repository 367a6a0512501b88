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
// own run count, modulo four: setup_s is even, allocs_per_job worse past
// its bound, heap_mb a resolved gain, jobs_per_s won three pairs in four
// and cpu_us_per_job all four by less than the parent's quartile
// distance. The change's third run is not correct. At GOMAXPROCS=2 the
// fake scales its timings by fakeScale2.
var fakeRuns = map[string][4]struct {
	setup, allocs, heap, jobs, cpu float64
	failed                         int
}{
	"parent": {{100e-6, 0.02, 4.30, 100000, 9, 0}, {200e-6, 0.02, 4.31, 100000, 10, 0}, {300e-6, 0.02, 4.32, 100000, 11, 0}, {400e-6, 0.02, 4.33, 100000, 12, 0}},
	"change": {{150e-6, 0.03, 4.00, 110000, 8.9, 0}, {190e-6, 0.03, 4.01, 110000, 9.9, 0}, {310e-6, 0.03, 4.02, 110000, 10.9, 2}, {390e-6, 0.03, 4.03, 90000, 11.9, 0}},
}

// fakeScale2 multiplies jobs_per_s and cpu_us_per_job, per side, at
// GOMAXPROCS=2.
var fakeScale2 = map[string][2]float64{"parent": {1.1, 1.8}, "change": {1.5, 1.2}}

// fakeTracedSteps is the fake's core.kk_steps_per_s under -trace 1, by
// side and run count modulo four: the change steps faster in every pair.
// Every traced run is correct, loses 14 jobs and prints a pmax with its
// note; its result line also holds a metric of another workload, which
// it does not print.
var fakeTracedSteps = map[string][4]float64{"parent": {5e6, 5.1e6, 4.9e6, 5.2e6}, "change": {8e6, 8.1e6, 7.9e6, 8.2e6}}

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
	if slices.Contains(os.Args[1:], "-trace") {
		steps := fakeTracedSteps[side][i%4]
		fmt.Printf("bench v1 fake\n\n== w: 3 epochs in 1.0s, attempted 100, failed 0, correct=true\n")
		fmt.Printf("   core.kk_steps_per_s %g 1/s\n   core.kk_eff_loss_jobs 14 jobs\n   dispatch.done_pmax_us 300 us  (job 7 of round 2)\n", steps)
		fmt.Printf(`{"correct":true,"attempted":100,"failed":0,"metrics":{"core.kk_eff_loss_jobs":{"value":14,"unit":"jobs"},"core.kk_steps_per_s":{"value":%g,"unit":"1/s"},"dispatch.done_pmax_us":{"value":300,"unit":"us"},"dispatch.duplicates":{"value":0,"unit":"count"}}}`+"\n", steps)
		return 0
	}
	r := fakeRuns[side][i%4]
	if os.Getenv("GOMAXPROCS") == "2" {
		r.jobs *= fakeScale2[side][0]
		r.cpu *= fakeScale2[side][1]
	}
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

// fakePair runs -pair on the fake bench, under the names parent and
// change, with -workload w -n 4 -seed 5 -seconds 0.5 and flags. It
// returns what -pair printed and the directory the fake logs its runs in.
func fakePair(t *testing.T, flags ...string) (string, string, error) {
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
	err = run(append([]string{"-pair", filepath.Join(bins, "parent"), filepath.Join(bins, "change"),
		"-workload", "w", "-n", "4", "-seed", "5", "-seconds", "0.5"}, flags...), &out)
	t.Log("\n" + out.String())
	return out.String(), log, err
}

// rowsOf indexes a -pair table's lines by their first field.
func rowsOf(out string) map[string]string {
	rows := map[string]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = l
		}
	}
	return rows
}

// TestPair drives -pair against the fake bench: the order of the runs,
// what each is given, the table's win counts and all three verdicts, and
// the flagged run.
func TestPair(t *testing.T) {
	out, log, err := fakePair(t, "-gomaxprocs", "3")
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

	rows := rowsOf(out)
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
	if strings.Contains(out, "unchanged") {
		t.Error("a verdict reads unchanged")
	}
	if runs := strings.Count(out, "\n  "); runs != 8 || !strings.Contains(out, "  3 change: 0.00031 0.03 4.02 110000 10.9 150 250  FLAGGED correct=false failed=2") {
		t.Errorf("the run list has %d runs, want 8 with the change's third flagged", runs)
	}
}

// TestPairGomaxprocsList drives -pair at -gomaxprocs 1,2: the four pairs
// run at each value in turn with the same alternation and seed, each
// value prints its own table, and a last table holds each side's ratio of
// the GOMAXPROCS 2 median to the GOMAXPROCS 1 one.
func TestPairGomaxprocsList(t *testing.T) {
	out, log, err := fakePair(t, "-gomaxprocs", "1,2")
	if err == nil || !strings.Contains(err.Error(), "2 of 16 runs") {
		t.Errorf("-pair returned %v, want an error counting the change's third run at each value", err)
	}

	logged, _ := os.ReadDir(log)
	if len(logged) != 16 {
		t.Fatalf("%d runs, want 16", len(logged))
	}
	order := []string{"parent", "change", "change", "parent"}
	for i, e := range logged {
		note, _ := os.ReadFile(filepath.Join(log, e.Name()))
		want := fmt.Sprintf("-workload w -seed 5 -seconds 0.5 GOMAXPROCS=%d", 1+i/8)
		if string(note) != want || !strings.HasSuffix(e.Name(), order[i%4]) {
			t.Errorf("run %d was %s given %q, want %s given %q", i, e.Name(), note, order[i%4], want)
		}
	}

	sections := strings.Split(out, "\n\nw: ")
	if len(sections) != 2 || !strings.HasPrefix(sections[0], "w: 4 pairs, seed 5, -seconds 0.5, GOMAXPROCS 1\n") ||
		!strings.HasPrefix(sections[1], "4 pairs, seed 5, -seconds 0.5, GOMAXPROCS 2\n") {
		t.Fatalf("want one table per GOMAXPROCS value, 1 then 2")
	}
	for i, jobs := range []string{"110000 [105000–110000] (90000–110000)", "165000 [157500–165000] (135000–165000)"} {
		if !strings.Contains(sections[i], jobs) {
			t.Errorf("table %d lacks the change's jobs_per_s %s", i+1, jobs)
		}
	}
	ratios := sections[1][strings.Index(sections[1], "GOMAXPROCS 2 / GOMAXPROCS 1, ratio of medians:"):]
	for _, want := range []string{"jobs_per_s      1.1     1.5", "cpu_us_per_job  1.8     1.2"} {
		if !strings.Contains(ratios, want) {
			t.Errorf("ratio table lacks %q", want)
		}
	}
}

// TestPairTraced drives -pair -trace 1: both sides run traced, and the
// table judges the per-layer metrics the workload printed, with no bound
// and none of the end-to-end metrics or timings.
func TestPairTraced(t *testing.T) {
	out, log, err := fakePair(t, "-trace", "1")
	if err != nil {
		t.Fatalf("-pair -trace 1 over correct runs returned %v", err)
	}
	logged, _ := os.ReadDir(log)
	for _, e := range logged {
		if note, _ := os.ReadFile(filepath.Join(log, e.Name())); string(note) != "-workload w -seed 5 -seconds 0.5 -trace 1 GOMAXPROCS=" {
			t.Errorf("run %s was given %q, want it traced", e.Name(), note)
		}
	}
	if len(logged) != 8 {
		t.Errorf("%d runs, want 8", len(logged))
	}
	rows := rowsOf(out)
	for _, want := range []struct{ metric, won, verdict string }{
		{"core.kk_steps_per_s", "4/4", "gain resolved"},
		{"core.kk_eff_loss_jobs", "0/4", "unresolved"},
		{"dispatch.done_pmax_us", "0/4", "unresolved"},
	} {
		if row := rows[want.metric]; !strings.Contains(row, " "+want.won+" ") || !strings.HasSuffix(row, want.verdict) {
			t.Errorf("%s row %q, want %s won and %q", want.metric, row, want.won, want.verdict)
		}
	}
	for _, absent := range []string{"dispatch.duplicates", "setup_s", "jobs_per_s"} {
		if row, ok := rows[absent]; ok {
			t.Errorf("the traced table judges %s: %q", absent, row)
		}
	}
}
