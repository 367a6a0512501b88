package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// pairMetric is one metric -pair judges. bound is BENCHMARK.json's: how
// far, as a share of the parent's median, the change may be worse; 0
// for a timing or a per-layer metric, which no bound holds on a shared
// box (bench/README.md).
type pairMetric struct {
	name, unit, better string
	bound              float64
}

// pairTimings are what bench prints on the "(not gated)" lines above its
// result line: the result line carries the gated metrics only.
var pairTimings = []pairMetric{
	{"jobs_per_s", "jobs/s", "higher", 0},
	{"cpu_us_per_job", "us", "lower", 0},
	{"done_p50_us", "us", "lower", 0},
	{"done_p90_us", "us", "lower", 0},
}

// benchRun is one bench run's result.
type benchRun struct {
	pair    int
	side    int // 0 parent, 1 change
	correct bool
	failed  uint64
	values  map[string]float64
}

var sides = [2]string{"parent", "change"}

// ratioMetrics are the timings whose GOMAXPROCS scaling -pair reports
// when it is given more than one value.
var ratioMetrics = []string{"jobs_per_s", "cpu_us_per_job"}

// pairMain runs two built bench binaries alternately, n pairs, and judges
// the change against the parent by bench/README.md's "Claiming a gain".
// args are PARENT_BIN CHANGE_BIN then flags; BENCHMARK.json is read from
// the working directory, where the runs run. With -trace 1 both run
// traced, and the metrics judged are the per_layer ones the workload
// prints. Given several GOMAXPROCS values it does all of that once per
// value, then, untraced, prints each side's ratio of the largest value's
// median to the smallest's.
func pairMain(args []string, stdout io.Writer) error {
	if len(args) < 2 {
		return errors.New("-pair needs PARENT_BIN CHANGE_BIN")
	}
	bins := [2]string{args[0], args[1]}
	fs := flag.NewFlagSet("amo-bench -pair", flag.ContinueOnError)
	workload := fs.String("workload", "", "the workload both binaries run (required)")
	n := fs.Int("n", 10, "pairs to run")
	seed := fs.Int64("seed", 1, "the -seed of every run")
	seconds := fs.Float64("seconds", 10, "the -seconds of every run")
	procsList := fs.String("gomaxprocs", "0", "GOMAXPROCS in each run's environment, or a comma-separated list run one after another (0: inherited)")
	trace := fs.Int("trace", 0, "1: run both sides traced and judge BENCHMARK.json's per_layer metrics the workload prints, like timings; 0: the end-to-end metrics and timings")
	if err := fs.Parse(args[2:]); err != nil {
		return err
	}
	var procs []int
	for _, f := range strings.Split(*procsList, ",") {
		p, err := strconv.Atoi(f)
		if err != nil || p < 0 {
			return fmt.Errorf("-gomaxprocs %q: want N or N,M,… with each N ≥ 0", *procsList)
		}
		procs = append(procs, p)
	}
	if fs.NArg() != 0 || *workload == "" || *n < 1 || *trace != 0 && *trace != 1 {
		return errors.New("-pair needs PARENT_BIN CHANGE_BIN -workload W, n ≥ 1, -trace 0 or 1 and no other arguments")
	}
	type declared []struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		EndToEnd declared `json:"end_to_end"`
		PerLayer declared `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &decl)
	}
	if err != nil {
		return fmt.Errorf("-pair reads the bounds from BENCHMARK.json: %w", err)
	}
	benchArgs := []string{"-workload", *workload, "-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
	var metrics []pairMetric
	if *trace == 1 {
		for _, m := range decl.PerLayer {
			metrics = append(metrics, pairMetric{m.Name, m.Unit, m.Better, 0})
		}
		benchArgs = append(benchArgs, "-trace", "1")
	} else {
		for _, m := range decl.EndToEnd {
			metrics = append(metrics, pairMetric{m.Name, m.Unit, m.Better, m.Bound})
		}
		metrics = append(metrics, pairTimings...)
	}

	flagged, total := 0, 0
	medians := make([][2]map[string]float64, len(procs)) // per value, per side
	for i, g := range procs {
		env := os.Environ()
		procsText := "inherited"
		if g > 0 {
			env = append(env, "GOMAXPROCS="+strconv.Itoa(g))
			procsText = strconv.Itoa(g)
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s: %d pairs, seed %d, -seconds %g, GOMAXPROCS %s\nparent %s\nchange %s\n\n",
			*workload, *n, *seed, *seconds, procsText, bins[0], bins[1])
		judged, runs, err := runPairs(bins, *n, benchArgs, env, metrics, *trace == 1)
		if err != nil {
			return err
		}
		var f int
		medians[i], f = printPairs(stdout, judged, runs, *n)
		flagged, total = flagged+f, total+len(runs)
	}
	if len(procs) > 1 && *trace == 0 {
		lo, hi := slices.Index(procs, slices.Min(procs)), slices.Index(procs, slices.Max(procs))
		fmt.Fprintf(stdout, "\nGOMAXPROCS %d / GOMAXPROCS %d, ratio of medians:\n", procs[hi], procs[lo])
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tparent\tchange")
		for _, m := range ratioMetrics {
			fmt.Fprintf(tw, "%s\t%s\t%s\n", m, num(medians[hi][0][m]/medians[lo][0][m]), num(medians[hi][1][m]/medians[lo][1][m]))
		}
		tw.Flush()
	}
	if flagged > 0 {
		return fmt.Errorf("%d of %d runs were not correct or had failed operations", flagged, total)
	}
	return nil
}

// runPairs runs n pairs. Which side runs first alternates, so a drift of
// the box over the runs lands on both sides alike. Every run must report
// every metric; a traced run reports only its workload's, so there the
// first run narrows the metrics to those it printed. It returns the
// metrics judged with the runs.
func runPairs(bins [2]string, n int, benchArgs, env []string, metrics []pairMetric, traced bool) ([]pairMetric, []benchRun, error) {
	var runs []benchRun
	for p := 1; p <= n; p++ {
		order := []int{0, 1}
		if p%2 == 0 {
			order = []int{1, 0}
		}
		for _, side := range order {
			r, err := runBench(bins[side], benchArgs, env)
			if err != nil {
				return nil, nil, fmt.Errorf("pair %d, %s: %w", p, sides[side], err)
			}
			if traced && len(runs) == 0 {
				metrics = slices.DeleteFunc(slices.Clone(metrics), func(m pairMetric) bool { _, ok := r.values[m.name]; return !ok })
			}
			if len(metrics) == 0 {
				return nil, nil, fmt.Errorf("pair %d, %s: %s printed no per-layer metric", p, sides[side], bins[side])
			}
			for _, m := range metrics {
				if _, ok := r.values[m.name]; !ok {
					return nil, nil, fmt.Errorf("pair %d, %s: %s reported no %s", p, sides[side], bins[side], m.name)
				}
			}
			r.pair, r.side = p, side
			runs = append(runs, r)
		}
	}
	return metrics, runs, nil
}

// printPairs prints the table and the run list of n pairs, and returns
// each side's median of every metric and how many runs it flagged.
func printPairs(stdout io.Writer, metrics []pairMetric, runs []benchRun, n int) (medians [2]map[string]float64, flagged int) {
	medians = [2]map[string]float64{{}, {}}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tparent median [q1–q3] (range)\tchange median [q1–q3] (range)\tchange won\tverdict")
	for _, m := range metrics {
		var vs [2][]float64
		for _, r := range runs {
			vs[r.side] = append(vs[r.side], r.values[m.name])
		}
		wins := 0
		for i, p := range vs[0] {
			if better(m, vs[1][i], p) {
				wins++
			}
		}
		medians[0][m.name], medians[1][m.name] = quantile(vs[0], 0.5), quantile(vs[1], 0.5)
		fmt.Fprintf(tw, "%s (%s)\t%s\t%s\t%d/%d\t%s\n", m.name, m.unit, spread(vs[0]), spread(vs[1]), wins, n, verdict(m, vs[0], vs[1], wins))
	}
	tw.Flush()

	fmt.Fprintf(stdout, "\nruns in order, pair side:")
	for _, m := range metrics {
		fmt.Fprintf(stdout, " %s", m.name)
	}
	fmt.Fprintln(stdout)
	for _, r := range runs {
		fmt.Fprintf(stdout, "  %d %s:", r.pair, sides[r.side])
		for _, m := range metrics {
			fmt.Fprintf(stdout, " %s", num(r.values[m.name]))
		}
		if !r.correct || r.failed > 0 {
			flagged++
			fmt.Fprintf(stdout, "  FLAGGED correct=%v failed=%d", r.correct, r.failed)
		}
		fmt.Fprintln(stdout)
	}
	return medians, flagged
}

// runBench runs one bench binary and reads its result: each metric it
// printed a line for, the value from the last line, a timing's from its
// own "(not gated)" line.
func runBench(bin string, args, env []string) (benchRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env, cmd.Stderr = env, os.Stderr
	out, runErr := cmd.Output() // bench exits 1 on a run that is not correct, and still prints its result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct bool
		Failed  uint64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return benchRun{}, fmt.Errorf("%s printed no result line (%v): %w", bin, runErr, err)
	}
	r := benchRun{correct: last.Correct, failed: last.Failed, values: map[string]float64{}}
	for _, l := range lines[:len(lines)-1] {
		switch f := strings.Fields(l); {
		case len(f) == 5 && f[3] == "(not" && f[4] == "gated)":
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				r.values[f[0]] = v
			}
		case len(f) >= 3:
			if v, ok := last.Metrics[f[0]]; ok {
				r.values[f[0]] = v.Value
			}
		}
	}
	return r, nil
}

// better reports whether a is better than b; a tie is neither's.
func better(m pairMetric, a, b float64) bool {
	if m.better == "higher" {
		return a > b
	}
	return a < b
}

// verdict is bench/README.md's "Claiming a gain" and BENCHMARK.json's
// bound, per metric: the change's median is worse than the parent's by
// more than the bound; or the change won nine pairs in ten and its
// median is better by more than the parent's quartile distance; or
// neither is shown. A change that moved nothing is unresolved, never
// "unchanged": the runs spread too widely to say.
func verdict(m pairMetric, parent, change []float64, wins int) string {
	gain := quantile(change, 0.5) - quantile(parent, 0.5)
	if m.better != "higher" {
		gain = -gain
	}
	switch {
	case m.bound > 0 && -gain > m.bound*math.Abs(quantile(parent, 0.5)):
		return "worse than bound"
	case 10*wins >= 9*len(parent) && gain > quantile(parent, 0.75)-quantile(parent, 0.25):
		return "gain resolved"
	}
	return "unresolved"
}

// quantile interpolates between the sorted values, as bench does.
func quantile(vs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func spread(vs []float64) string {
	return fmt.Sprintf("%s [%s–%s] (%s–%s)", num(quantile(vs, 0.5)), num(quantile(vs, 0.25)), num(quantile(vs, 0.75)), num(slices.Min(vs)), num(slices.Max(vs)))
}

func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
