//go:build linux

// Command bench is the repository's benchmark of record: six workloads
// from the KKβ round core to the jobd client socket, every output checked
// against an at-most-once oracle, every layer measured from outside. See
// README.md for the metrics, the workloads and how they interact, and
// BENCHMARK.json at the repository root for the names and bounds later
// changes are judged on.
//
//	go run ./bench                      all workloads, tracing off
//	go run ./bench -trace 1             the traced run: per-layer metrics and stage budgets
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                    one workload; the last line is the result object
//	go run ./bench -smoke               every workload at 1/500 size
//	go run ./bench -agree A.json B.json compare two result documents
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sampleStride is the untraced latency sampling: one job in 64, by
// sequence number.
const sampleStride = 64

// Scales divide the job counts: a traced run stamps every job and runs a
// quarter of them; -smoke runs 1/500.
const (
	tracedScale = 4
	smokeScale  = 500
)

// counts are the jobs per epoch (timed window, warm-up) at full size. An
// epoch is a fresh system: set-up and warm-up, the timed window, and for
// the durable workloads a reopen. A run repeats epochs until -seconds
// have passed and reports the median over them.
var counts = map[string][2]int{
	wEngine:   {1_000_000, 100_000},
	wMmap:     {1_000_000, 100_000},
	wNet:      {40_000, 4_000},
	wJobdPipe: {128_000, 12_800},
	wJobdOpen: {8_000, 4_000},
	wPaper:    {paperKKJobs + paperIterJobs + paperRunJobs + paperCells, 0},
}

type workloadDef struct {
	name   string
	why    string
	stride uint64
	epoch  func(r *run, e int, traced bool) (*epochOut, error)
	probes []func(r *run) (sample, error)
}

func workloads() []workloadDef {
	engine := &dispatcherWorkload{name: wEngine, open: openAtomic}
	mmap := &dispatcherWorkload{name: wMmap, durable: true, open: openMmap}
	net := &dispatcherWorkload{name: wNet, durable: true, open: openNet}
	pipe := &jobdWorkload{name: wJobdPipe, payload: 32}
	open := &jobdWorkload{name: wJobdOpen, durable: true, payload: 1024, open: true}
	type probe = func(*run) (sample, error)
	return []workloadDef{
		{wEngine, "in-memory dispatcher stream: core, denseset, conc and dispatch do all the work; the ceiling every higher floor is compared to",
			sampleStride, engine.epoch, []probe{engineProbes}},
		{wMmap, "same stream over mmap register files, then Close and reopen: the journal's write side and the recovery scan's read side in one workload",
			sampleStride, mmap.epoch, []probe{mmapProbes}},
		{wNet, "same stream over a net: register server: netmem client, server and codec do most of the work and msync none",
			sampleStride, net.epoch, []probe{netProbes}},
		{wJobdPipe, "closed loop of small submits through jobd on atomic registers: wire, connection, core loop and event fan-out dominate, the dispatcher is nearly idle",
			sampleStride, pipe.epoch, []probe{pipe.probes}},
		{wJobdOpen, "open loop at 8000/s of 1 KiB durable submits with priorities, then a restart: latency from the due time below capacity, descriptor log and replay",
			1, open.epoch, []probe{open.probes, mmapProbes}},
		{wPaper, "the paper's one-shot algorithms through the public API: the only workload where the sparse IterativeKK path works and dispatch does not",
			sampleStride, paperEpoch, nil},
	}
}

// run is one invocation's settings and scratch state.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	scale   int
	tmp     string    // temporary root inside the working directory
	spans   io.Writer // nil: no span file
	stride  uint64    // of the workload being run

	recs [2]*recorder // untraced, traced: reused across epochs
}

func (r *run) count(workload string) (jobs, warm int) {
	c := counts[workload]
	return max(c[0]/r.scale, 32), max(c[1]/r.scale, 8)
}

// recorder returns the run's recorder for traced or untraced epochs of up
// to jobs jobs; it is allocated once and reused, so the live heap does not
// depend on how many epochs ran.
func (r *run) recorder(traced bool, jobs int) *recorder {
	i := 0
	if traced {
		i = 1
	}
	if r.recs[i] == nil {
		r.recs[i] = newRecorder(traced, r.stride, jobs)
	}
	return r.recs[i]
}

// writeSpans writes the spans of a workload's first traced epoch (epoch 1;
// epoch 0 is the untraced reference). One epoch shows the shape; every
// traced epoch would be hundreds of megabytes.
func (r *run) writeSpans(rec *recorder, workload string, epoch int) error {
	if r.spans == nil || epoch != 1 {
		return nil
	}
	return rec.writeSpans(r.spans, workload, epoch)
}

// epochOut is what one epoch returns to the runner.
type epochOut struct {
	s         sample
	jobsPerS  float64
	attempted uint64
	failed    uint64
	err       error   // oracle verdict
	budget    *budget // traced epochs
	pmaxLabel string  // which percentile *_pmax_us is
}

// result is one workload's part of the result document.
type result struct {
	Name      string           `json:"name"`
	WallS     float64          `json:"wall_s"`
	Epochs    int              `json:"epochs"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Timings   map[string]value `json:"timings,omitempty"` // untraced runs: reported, not gated
	Pmax      string           `json:"pmax,omitempty"`
	Budget    *budget          `json:"stage_budget,omitempty"`
	Errors    []string         `json:"errors,omitempty"`
}

func (res *result) traced() bool { return res.Timings == nil }

// header makes a result document interpretable on its own.
type header struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	Kernel     string            `json:"kernel"`
	Storage    string            `json:"storage"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Smoke      bool              `json:"smoke"`
	Counts     map[string][2]int `json:"jobs_per_epoch"` // [window, warm-up] as run, after scaling
}

type document struct {
	BenchVersion int      `json:"bench_version"`
	Header       header   `json:"header"`
	Workloads    []result `json:"workloads"`
}

// runWorkload repeats epochs for r.seconds and combines them.
func (r *run) runWorkload(w workloadDef, out io.Writer) (*result, error) {
	start := time.Now()
	r.stride, r.recs = w.stride, [2]*recorder{}
	minEpochs := 3
	switch {
	case r.smoke && r.trace:
		minEpochs = 2
	case r.smoke:
		minEpochs = 1
	case r.trace:
		minEpochs = 4
	}
	res := &result{Name: w.name, Correct: true}
	var measured []sample
	var plain, traced []float64 // jobs/s of untraced and traced epochs
	for e := 0; e < minEpochs || time.Since(start).Seconds() < r.seconds; e++ {
		// In a traced run the even epochs run untraced: the reference
		// loadgen.trace_overhead_share is measured against.
		tr := r.trace && e%2 == 1
		eo, err := w.epoch(r, e, tr)
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", w.name, e, err)
		}
		res.Epochs++
		res.Attempted += eo.attempted
		res.Failed += eo.failed
		if eo.err != nil {
			res.Correct = false
			res.Errors = append(res.Errors, fmt.Sprintf("epoch %d: %v", e, eo.err))
		}
		if tr {
			traced = append(traced, eo.jobsPerS)
			res.Budget, res.Pmax = eo.budget, eo.pmaxLabel
		} else {
			plain = append(plain, eo.jobsPerS)
		}
		switch {
		case tr == r.trace:
			measured = append(measured, eo.s)
		case r.trace:
			// An untraced epoch of a traced run: its timings are the
			// run's loadgen.<name>.
			s := sample{}
			for _, t := range timings {
				s["loadgen."+t.name] = eo.s[t.name]
			}
			measured = append(measured, s)
		}
	}
	decl := reported(r.trace)
	if r.trace {
		extra := sample{"loadgen.trace_overhead_share": 1 - betterQuartile(traced, "higher")/betterQuartile(plain, "higher")}
		for _, p := range w.probes {
			s, err := p(r)
			if err != nil {
				return nil, fmt.Errorf("%s probes: %w", w.name, err)
			}
			for k, v := range s {
				extra[k] = v
			}
		}
		measured = append(measured, extra)
	}
	var err error
	if res.Metrics, err = combine(w.name, decl, measured); err != nil {
		return nil, err
	}
	if !r.trace {
		res.Timings = map[string]value{}
		for _, t := range timings {
			res.Timings[t.name] = res.Metrics[t.name]
			delete(res.Metrics, t.name)
		}
	}
	if res.Failed != 0 {
		res.Correct = false
		res.Errors = append(res.Errors, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	res.WallS = time.Since(start).Seconds()
	printResult(out, res, decl)
	return res, nil
}

func printResult(out io.Writer, res *result, decl []metric) {
	fmt.Fprintf(out, "\n== %s: %d epochs in %.1fs, attempted %d, failed %d, correct=%v\n",
		res.Name, res.Epochs, res.WallS, res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "   ERROR %s\n", e)
	}
	for _, m := range decl {
		v, ok := res.Metrics[m.name]
		if !ok {
			if v, ok = res.Timings[m.name]; !ok {
				continue
			}
		}
		note := ""
		if strings.HasSuffix(m.name, "_pmax_us") {
			note = "  (" + res.Pmax + ")"
		}
		if m.bound == 0 && !res.traced() {
			note = "  (not gated)"
		}
		fmt.Fprintf(out, "   %-36s %16.6g %-7s%s\n", m.name, v.Value, v.Unit, note)
	}
	if b := res.Budget; b != nil && b.Jobs > 0 {
		fmt.Fprintf(out, "   stage budget over %d jobs: median job span %.2f us\n", b.Jobs, b.JobUS)
		fmt.Fprintf(out, "     %-14s %15s %7s %18s\n", "stage", "of the median job", "share", "own median")
		for _, s := range b.Stages {
			fmt.Fprintf(out, "     %-14s %14.2f us %6.1f%% %15.2f us\n", s.Name, s.US, 100*s.Share, s.MedianUS)
		}
		fmt.Fprintf(out, "     the stages add up to within %.1f%% of the median job span\n", 100*b.Gap)
	}
}

// budgetLimit is how far the stages may be from adding up to the median
// job span; lateLimitUS is the open-loop lateness beyond which the
// generator, not the server, missed the schedule and the run is invalid.
const (
	budgetLimit = 0.10
	lateLimitUS = 3000
)

// invalid lists what makes a full-size traced result unusable even though
// its outputs were correct.
func invalid(res *result) []string {
	var why []string
	switch res.Name {
	case wEngine, wJobdPipe, wJobdOpen:
		if gap := res.Metrics["loadgen.budget_gap_share"].Value; gap > budgetLimit {
			why = append(why, fmt.Sprintf("%s: the stages are %.1f%% from adding up to the median job span (limit %.0f%%)", res.Name, 100*gap, 100*budgetLimit))
		}
	}
	if v, ok := res.Metrics["loadgen.late_p99_us"]; ok && v.Value > lateLimitUS {
		why = append(why, fmt.Sprintf("%s: the generator ran %.0f us late at p99 (limit %d): invalid, not slow", res.Name, v.Value, lateLimitUS))
	}
	return why
}

func gitCommit() string {
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(rev))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and end with its result object (default: all six, ending with the result document)")
	seed := fs.Int64("seed", 1, "drives everything random: payload bytes, tenant and priority pattern, arrival schedule, simulator adversary")
	seconds := fs.Float64("seconds", 10, "how long each workload repeats its epochs")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, stage budget); 0: end-to-end metrics, tracing off")
	smoke := fs.Bool("smoke", false, "every workload at 1/500 size, one epoch: checks the harness, measures nothing")
	agree := fs.Bool("agree", false, "compare two result documents (the two arguments) against the bounds in BENCHMARK.json")
	spans := fs.String("spans", "", "traced run: write the spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -agree needs two result documents")
			return 2
		}
		return agreeMain(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}

	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, scale: 1}
	switch {
	case r.smoke:
		r.scale, r.seconds = smokeScale, 0
	case r.trace:
		r.scale = tracedScale
	}
	var selected []workloadDef
	for _, w := range workloads() {
		if *workload == "" || *workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(allWorkloads, ", "))
		return 2
	}

	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(tmp)
		os.Remove(".bench_tmp") // only when no other run is using it
	}()
	if r.tmp, err = filepath.Abs(tmp); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		r.spans = f
	}

	doc := document{BenchVersion: benchVersion, Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: gitCommit(), Kernel: kernel(), Storage: storageKind(),
		Seed: r.seed, Seconds: r.seconds, Trace: r.trace, Smoke: r.smoke,
		Counts: map[string][2]int{},
	}}
	for _, w := range selected {
		jobs, warm := r.count(w.name)
		if w.name == wPaper {
			jobs, warm = counts[wPaper][0]/r.scale, (counts[wPaper][0]-paperIterJobs)/r.scale/paperWarmShare+paperIterJobs/max(r.scale, paperWarmIterShare)
		}
		doc.Header.Counts[w.name] = [2]int{jobs, warm}
	}
	h := doc.Header
	fmt.Fprintf(stdout, "bench v%d nproc=%d gomaxprocs=%d %s kernel=%s commit=%s storage=%s seed=%d seconds=%g trace=%v smoke=%v\n",
		benchVersion, h.NProc, h.GOMAXPROCS, h.Go, h.Kernel, h.Commit, h.Storage, h.Seed, h.Seconds, h.Trace, h.Smoke)
	names := make([]string, 0, len(h.Counts))
	for n := range h.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-18s %9d jobs per epoch after %d of warm-up\n", n, h.Counts[n][0], h.Counts[n][1])
	}

	code := 0
	for _, w := range selected {
		res, err := r.runWorkload(w, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
			for _, e := range res.Errors {
				fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
			}
		}
		if r.trace && !r.smoke && *workload == "" {
			for _, why := range invalid(res) {
				fmt.Fprintln(stdout, "   INVALID", why)
				code = 1
			}
		}
		doc.Workloads = append(doc.Workloads, *res)
	}

	// The last line is the machine-readable result: the whole document,
	// or for a single workload the object a driver reads.
	enc := json.NewEncoder(stdout)
	if *workload == "" {
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return code
	}
	res := doc.Workloads[0]
	decl := endToEnd
	if r.trace {
		decl = perLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range decl {
		// A driver expects every declared name on every workload; a
		// per-layer metric that does not apply to this one reads 0.
		line.Metrics[m.name] = value{Value: res.Metrics[m.name].Value, Unit: m.unit}
	}
	if err := enc.Encode(line); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}
