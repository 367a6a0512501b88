// Package sim is the execution engine for the paper's asynchronous
// shared-memory model (§2.1): m crash-prone processes take atomic actions
// one at a time, under the control of an omniscient on-line adversary that
// schedules steps and injects up to f < m crashes.
//
// Every algorithm in this repository is written as a state machine whose
// Step method performs exactly one action of its I/O automaton (at most one
// shared-memory access plus local computation). Because the engine
// serializes actions, each run is a linearization — exactly the execution
// space the paper's proofs quantify over.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"atmostonce/internal/shmem"
)

// Status is the lifecycle state of a process.
type Status int

// Process lifecycle states.
const (
	// Running means the process has enabled actions.
	Running Status = iota + 1
	// Done means the process terminated voluntarily (the paper's "end").
	Done
	// Crashed means the adversary delivered stop_p.
	Crashed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Done:
		return "done"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Process is a deterministic state machine executing one atomic action per
// Step call. Implementations must not touch shared memory outside Step,
// and each Step must perform at most one shared read or write.
type Process interface {
	// ID returns the 1-based process identifier from P = [1..m].
	ID() int
	// Step performs the single enabled action. It must only be called
	// while Status() == Running.
	Step()
	// Status reports the process lifecycle state.
	Status() Status
	// Crash delivers the stop action; the process takes no further steps.
	Crash()
	// Work is the process's work so far in the paper's cost model (§2.2:
	// comparisons, additions, memory accesses; set operations cost
	// O(log n)).
	Work() uint64
}

// DoSink receives do_{p,j} events. World is one; the concurrent runtime
// and the model checker provide their own.
type DoSink interface {
	RecordDo(pid int, job int64)
}

// Base is the part of a process every algorithm shares: its id, its
// lifecycle status, its work and its do-event sink. A process embeds it
// and writes only Step.
type Base struct {
	id     int
	status Status
	work   uint64
	sink   DoSink
}

// NewBase returns the base of a running process p with the given sink.
func NewBase(p int, sink DoSink) Base { return Base{id: p, status: Running, sink: sink} }

// ID implements Process.
func (b *Base) ID() int { return b.id }

// Status implements Process.
func (b *Base) Status() Status { return b.status }

// Crash implements Process.
func (b *Base) Crash() { b.status = Crashed }

// Work implements Process.
func (b *Base) Work() uint64 { return b.work }

// SetSink rebinds the do-event sink (the model checker reports to itself).
func (b *Base) SetSink(s DoSink) { b.sink = s }

// Do performs do_{p,job}: the event goes to the sink, at one unit of work.
func (b *Base) Do(job int64) {
	b.sink.RecordDo(b.id, job)
	b.work++
}

// Charge adds one unit of work: a shared-memory access.
func (b *Base) Charge() { b.work++ }

// End terminates the process voluntarily (the paper's "end").
func (b *Base) End() { b.status = Done }

// Event records one do_{p,j} action.
type Event struct {
	PID  int    // process that performed the job
	Job  int64  // job identifier
	Step uint64 // global step index at which the do action occurred
}

// World is the global state of one execution: processes, shared memory and
// crash budget. Mem may be nil when the processes keep registers the world
// does not count (a conc round's real atomic ones).
// As its processes' do sink, it marks each do in the doer's Marks over the
// jobs [1..n], made at the first do, and Run's Result tallies them; it
// logs each do too once KeepEvents asks.
type World struct {
	Procs      []Process // Procs[i] has ID i+1
	Mem        *shmem.SimMem
	MaxCrashes int            // f; must be < len(Procs)
	Watch      func(w *World) // if set, sees the world before every action Run takes

	steps   uint64
	crashes int
	n       int
	marks   []Marks // marks[i] is process i+1's, once a do happened
	events  []Event // nil unless KeepEvents
	live    []int   // Live's buffer; during Run, the live set Run keeps
	kept    bool    // Run is keeping live
}

// NewWorld assembles a world of processes that keep their own sinks. The
// crash budget f is clamped to [0, m−1], the paper's f < m.
func NewWorld(procs []Process, mem *shmem.SimMem, f int) *World {
	return &World{Procs: procs, Mem: mem, MaxCrashes: max(0, min(f, len(procs)-1)), live: make([]int, 0, len(procs))}
}

// Assemble builds a world of m processes over mem and the jobs [1..n]: mk
// makes process id with the world as its do sink.
func Assemble(m, n int, mem *shmem.SimMem, f int, mk func(id int, sink DoSink) Process) *World {
	w := NewWorld(make([]Process, m), mem, f)
	w.n = n
	for i := range w.Procs {
		w.Procs[i] = mk(i+1, w)
	}
	return w
}

// KeepEvents makes the world log its dos in order as well as mark them,
// in a log sized for n (Lemma 4.1): for a test that reads the order or
// checks the tally against verify.CheckEvents. It returns w.
func (w *World) KeepEvents() *World {
	w.events = make([]Event, 0, w.n)
	return w
}

// Steps returns the number of actions executed so far.
func (w *World) Steps() uint64 { return w.steps }

// RecordDo is called by processes when they execute a do_{p,j} action.
func (w *World) RecordDo(pid int, job int64) {
	if w.marks == nil {
		w.marks = NewMarks(len(w.Procs), w.n)
	}
	w.marks[pid-1].Mark(job)
	if w.events != nil {
		w.events = append(w.events, Event{PID: pid, Job: job, Step: w.steps})
	}
}

// Live returns the ids of processes that are still Running, ascending, in
// a buffer the world owns: the slice is valid until the next call, and
// during Run until the next step. Run keeps the set as processes stop, so
// an adversary's call costs nothing in m; outside Run it is a scan.
func (w *World) Live() []int {
	if w.kept {
		return w.live
	}
	w.live = w.live[:0]
	for _, p := range w.Procs {
		if p.Status() == Running {
			w.live = append(w.live, p.ID())
		}
	}
	return w.live
}

// CanCrash reports whether the crash budget allows another failure.
func (w *World) CanCrash() bool { return w.crashes < w.MaxCrashes }

// proc returns the process with the given 1-based id.
func (w *World) proc(pid int) Process { return w.Procs[pid-1] }

// DecisionKind distinguishes adversary moves.
type DecisionKind int

// Adversary decision kinds.
const (
	// DecideStep schedules one action of process PID.
	DecideStep DecisionKind = iota + 1
	// DecideCrash delivers stop to process PID (consumes crash budget).
	DecideCrash
)

// Decision is one adversary move.
type Decision struct {
	Kind DecisionKind
	PID  int
}

// StepOf returns a step decision for pid.
func StepOf(pid int) Decision { return Decision{Kind: DecideStep, PID: pid} }

// CrashOf returns a crash decision for pid.
func CrashOf(pid int) Decision { return Decision{Kind: DecideCrash, PID: pid} }

// Adversary controls scheduling and failures. It is consulted, with full
// visibility of the world ("omniscient on-line", §2.1), before every action
// it has a choice about: all but Run's forced tail.
// Implementations must eventually schedule every live process (fairness);
// the engine enforces only basic validity, not fairness.
type Adversary interface {
	// Next returns the next move. It must name a Running process; crash
	// moves are ignored when the budget is exhausted (the engine then asks
	// again after converting the move to a step of the same process).
	Next(w *World) Decision
}

// Result summarizes a completed execution, with the Tally of its dos over
// the jobs [1..n] if Assemble made the world (own sinks leave it empty).
type Result struct {
	Tally
	Steps     uint64
	Crashes   int
	Events    []Event // the do log of a world that keeps one (KeepEvents)
	Work      uint64  // sum of the processes' Work
	MemReads  uint64
	MemWrites uint64
}

// ErrStepLimit is returned when an execution exceeds the step budget,
// which for a fair adversary indicates a wait-freedom violation
// (Lemma 4.3 guarantees this never happens for β ≥ m).
var ErrStepLimit = errors.New("sim: step limit exceeded before termination")

// Run drives the world until every process is Done or Crashed, or until
// maxSteps actions have been executed. maxSteps ≤ 0 means no limit. It
// keeps the live set as it goes: a process leaves it when its own step
// ends it or a crash decision stops it, so a step costs O(1) in m. A last
// process with no crash left to spend is stepped without the adversary.
func Run(w *World, adv Adversary, maxSteps uint64) (*Result, error) {
	w.Live()
	w.kept = true
	defer func() { w.kept = false }()
	for len(w.live) > 1 || len(w.live) == 1 && w.CanCrash() {
		if maxSteps > 0 && w.steps >= maxSteps {
			return summarize(w), ErrStepLimit
		}
		if w.Watch != nil {
			w.Watch(w)
		}
		d := adv.Next(w)
		p := w.proc(d.PID)
		if p.Status() != Running {
			return summarize(w), fmt.Errorf("sim: adversary chose %s process %d", p.Status(), d.PID)
		}
		switch d.Kind {
		case DecideCrash:
			if w.CanCrash() {
				p.Crash()
				w.crashes++
				w.drop(d.PID)
				continue
			}
			// Budget exhausted: treat as a step to keep the run moving.
			fallthrough
		case DecideStep:
			w.steps++
			p.Step()
			if p.Status() != Running {
				w.drop(d.PID)
			}
		default:
			return summarize(w), fmt.Errorf("sim: invalid decision kind %d", d.Kind)
		}
	}
	if len(w.live) == 1 {
		p := w.proc(w.live[0])
		for p.Status() == Running {
			if maxSteps > 0 && w.steps >= maxSteps {
				return summarize(w), ErrStepLimit
			}
			if w.Watch != nil {
				w.Watch(w)
			}
			w.steps++
			p.Step()
		}
		w.live = w.live[:0]
	}
	return summarize(w), nil
}

// drop removes a stopped pid from the kept live set, keeping it ascending
// so that an adversary drawing from it draws as it would from a scan.
func (w *World) drop(pid int) {
	i, _ := slices.BinarySearch(w.live, pid)
	w.live = slices.Delete(w.live, i, i+1)
}

func summarize(w *World) *Result {
	r := &Result{Steps: w.steps, Crashes: w.crashes, Events: w.events}
	if w.n > 0 {
		r.Merge(w.n, w.marks)
	}
	if w.Mem != nil {
		r.MemReads, r.MemWrites = w.Mem.Reads(), w.Mem.Writes()
	}
	for _, p := range w.Procs {
		r.Work += p.Work()
	}
	return r
}

// --- stock adversaries ---

// RoundRobin steps live processes cyclically and never crashes anyone.
type RoundRobin struct {
	next int
}

// Next implements Adversary.
func (a *RoundRobin) Next(w *World) Decision {
	m := len(w.Procs)
	for i := 0; i < m; i++ {
		pid := a.next%m + 1
		a.next++
		if w.proc(pid).Status() == Running {
			return StepOf(pid)
		}
	}
	// Unreachable while Run has a live process.
	return StepOf(1)
}

// Random steps a uniformly random live process; with probability
// CrashProb it crashes a random live process instead (budget permitting).
// Deterministic for a fixed seed.
type Random struct {
	Rng       *rand.Rand
	CrashProb float64
}

// NewRandom returns a Random adversary with the given seed and no crashes.
func NewRandom(seed int64) *Random {
	return &Random{Rng: rand.New(rand.NewSource(seed))}
}

// Next implements Adversary.
func (a *Random) Next(w *World) Decision {
	live := w.Live()
	pid := live[a.Rng.Intn(len(live))]
	if a.CrashProb > 0 && w.CanCrash() && len(live) > 1 && a.Rng.Float64() < a.CrashProb {
		return CrashOf(pid)
	}
	return StepOf(pid)
}

// CrashList crashes the listed processes immediately (in order, budget
// permitting), then delegates to Then.
type CrashList struct {
	Victims []int
	Then    Adversary

	idx int
}

// Next implements Adversary.
func (a *CrashList) Next(w *World) Decision {
	for a.idx < len(a.Victims) && w.CanCrash() {
		pid := a.Victims[a.idx]
		a.idx++
		if w.proc(pid).Status() == Running {
			return CrashOf(pid)
		}
	}
	return a.Then.Next(w)
}

// StepBudget crashes process i+1 once it has been granted Steps[i] steps
// (0 = never) and leaves every other move to Then: a step Then picks for
// a process whose budget is spent becomes its crash, budget permitting. A
// process that ends within its budget does not crash.
type StepBudget struct {
	Steps []uint64
	Then  Adversary

	granted []uint64
}

// Next implements Adversary.
func (a *StepBudget) Next(w *World) Decision {
	d := a.Then.Next(w)
	if d.Kind != DecideStep {
		return d
	}
	if a.granted == nil {
		a.granted = make([]uint64, len(a.Steps))
	}
	i := d.PID - 1
	if a.Steps[i] > 0 && a.granted[i] >= a.Steps[i] && w.CanCrash() {
		return CrashOf(d.PID)
	}
	a.granted[i]++
	return d
}

// Solo steps a single process until it stops, then falls back to
// round-robin over the rest. Useful for building worst-case schedules.
type Solo struct {
	PID  int
	rest RoundRobin
}

// Next implements Adversary.
func (a *Solo) Next(w *World) Decision {
	if w.proc(a.PID).Status() == Running {
		return StepOf(a.PID)
	}
	return a.rest.Next(w)
}

// Scripted replays an explicit decision list, then delegates to Then.
// Decisions naming non-running processes are skipped. Used by tests and by
// the bounded model checker to reproduce counterexample schedules.
type Scripted struct {
	Script []Decision
	Then   Adversary

	idx int
}

// Next implements Adversary.
func (a *Scripted) Next(w *World) Decision {
	for a.idx < len(a.Script) {
		d := a.Script[a.idx]
		a.idx++
		if w.proc(d.PID).Status() == Running {
			return d
		}
	}
	return a.Then.Next(w)
}
