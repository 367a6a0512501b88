//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
)

// The five boundaries the benchmark owns around one job. Everything
// between them happens inside the program under test.
const (
	stSubmit = iota // the submit call is entered (open loop: the job was due)
	stAck           // the submit call returned (dispatcher: Do; jobd: admission reply)
	stRun           // first instruction of the benchmark-owned payload
	stRan           // the payload returns
	stDone          // the submitter sees the completion (Callback; jobd event)
	stKinds
)

// recorder keeps the stamps of the sampled jobs of one timed window in
// memory. Untraced runs sample one job in 64 and stamp only what the
// latency metrics need (submit, ack, done); traced runs stamp every job at
// every boundary.
type recorder struct {
	traced bool
	stride uint64
	lo, hi uint64 // the window's sequence numbers; warm-up jobs lie below lo
	t      [stKinds][]int64
}

func newRecorder(traced bool, stride uint64, maxJobs int) *recorder {
	if traced {
		stride = 1
	}
	r := &recorder{traced: traced, stride: stride}
	for k := range r.t {
		r.t[k] = make([]int64, uint64(maxJobs)/stride+1)
	}
	return r
}

// idleRecorder samples nothing: for streams that are driven but not
// measured per job (probes).
func idleRecorder() *recorder {
	r := newRecorder(false, sampleStride, 0)
	r.arm(0, 0)
	return r
}

// arm clears the stamps and sets the window.
func (r *recorder) arm(lo, hi uint64) {
	r.lo, r.hi = lo, hi
	for k := range r.t {
		clear(r.t[k])
	}
}

// slot returns the index of seq's stamps, or -1 when seq is not sampled.
func (r *recorder) slot(seq uint64) int {
	if seq < r.lo || seq >= r.hi || (seq-r.lo)%r.stride != 0 {
		return -1
	}
	return int((seq - r.lo) / r.stride)
}

func (r *recorder) stamp(kind int, seq uint64) {
	if i := r.slot(seq); i >= 0 {
		r.t[kind][i] = now()
	}
}

func (r *recorder) set(kind int, seq uint64, at int64) {
	if i := r.slot(seq); i >= 0 {
		r.t[kind][i] = at
	}
}

// between returns, over the sampled jobs that carry both stamps, the
// sorted durations from boundary a to boundary b.
func (r *recorder) between(a, b int) []int64 {
	n := int((r.hi - r.lo + r.stride - 1) / r.stride)
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if ta, tb := r.t[a][i], r.t[b][i]; ta != 0 && tb != 0 {
			out = append(out, tb-ta)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stage is one row of the stage budget.
type stage struct {
	Name     string  `json:"name"`
	US       float64 `json:"us"`        // the stage's part of the median job
	Share    float64 `json:"share"`     // …as a share of the median job span
	MedianUS float64 `json:"median_us"` // the stage's own median over all jobs
}

// budget is the outside-in account of one traced window: where the time of
// the median job goes.
type budget struct {
	Jobs   int     `json:"jobs"`
	JobUS  float64 `json:"job_median_us"`
	Stages []stage `json:"stages"`
	Gap    float64 `json:"gap_share"` // |sum of the stages − job median| ÷ job median
}

// stages splits every fully stamped job's span into four stages that
// partition it exactly:
//
//	submit_call   submit → ack, cut short where the payload started first
//	queue_to_run  ack → payload start (zero where the payload started first)
//	payload       payload start → payload return
//	run_to_done   payload return → completion seen
//
// Under jobd the admission reply travels back while the dispatcher may
// already be running the job, so the ack is not on every job's critical
// path; cutting submit_call at the payload start keeps the four stages a
// partition of the span, and per job they add up to it exactly.
//
// Medians of skewed stages do not add up (on engine_stream the two large
// stages' own medians reach 88–92% of the job median), so the budget is
// taken over the median job: the tenth of the jobs whose span is nearest
// the median (45th to 55th percentile), each stage averaged over them.
// Those add up to that band's mean span, and Gap says how far that is from
// the median itself. Each stage's own median is kept beside it.
func (r *recorder) stages() budget {
	n := int((r.hi - r.lo + r.stride - 1) / r.stride)
	names := [4]string{"submit_call", "queue_to_run", "payload", "run_to_done"}
	var parts [4][]int64
	var job []int64
	for i := 0; i < n; i++ {
		t0, t1, t2, t3, t4 := r.t[stSubmit][i], r.t[stAck][i], r.t[stRun][i], r.t[stRan][i], r.t[stDone][i]
		if t0 == 0 || t1 == 0 || t2 == 0 || t3 == 0 || t4 == 0 {
			continue
		}
		parts[0] = append(parts[0], min(t1, t2)-t0)
		parts[1] = append(parts[1], max(0, t2-t1))
		parts[2] = append(parts[2], t3-t2)
		parts[3] = append(parts[3], t4-t3)
		job = append(job, t4-t0)
	}
	b := budget{Jobs: len(job)}
	if len(job) == 0 {
		return b
	}
	order := make([]int, len(job))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return job[order[a]] < job[order[b]] })
	jobMed := job[order[(len(order)-1)/2]]
	band := order[len(order)*45/100 : len(order)*55/100+1]
	b.JobUS = us(jobMed)
	var sum float64
	for k, p := range parts {
		var mean float64
		for _, i := range band {
			mean += float64(p[i])
		}
		mean /= float64(len(band))
		sum += mean
		b.Stages = append(b.Stages, stage{Name: names[k], US: mean / 1e3, Share: mean / float64(jobMed),
			MedianUS: us(pct(sortedCopy(p), 0.5))})
	}
	b.Gap = math.Abs(sum-float64(jobMed)) / float64(jobMed)
	return b
}

// maxSpanJobs bounds the jobs written to the span file per window; the
// statistics always use every stamped job.
const maxSpanJobs = 5000

// writeSpans writes the window's spans as JSON lines: per job a root span
// "job" and its children, all carrying the job's sequence number. Times
// are nanoseconds on the run's monotonic clock.
func (r *recorder) writeSpans(w io.Writer, workload string, epoch int) error {
	bw := bufio.NewWriter(w)
	n := int((r.hi - r.lo + r.stride - 1) / r.stride)
	span := func(seq uint64, name, parent string, from, to int64) {
		fmt.Fprintf(bw, `{"workload":%q,"epoch":%d,"seq":%d,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			workload, epoch, seq, name, parent, from, to)
	}
	written := 0
	for i := 0; i < n && written < maxSpanJobs; i++ {
		t0, t1, t2, t3, t4 := r.t[stSubmit][i], r.t[stAck][i], r.t[stRun][i], r.t[stRan][i], r.t[stDone][i]
		if t0 == 0 || t1 == 0 || t2 == 0 || t3 == 0 || t4 == 0 {
			continue
		}
		seq := r.lo + uint64(i)*r.stride
		span(seq, "job", "", t0, t4)
		span(seq, "submit_call", "job", t0, t1)
		if t2 > t1 {
			span(seq, "queue_to_run", "job", t1, t2)
		}
		span(seq, "payload", "job", t2, t3)
		span(seq, "run_to_done", "job", t3, t4)
		written++
	}
	return bw.Flush()
}
