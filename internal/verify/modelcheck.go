package verify

import (
	"encoding/binary"
	"errors"
	"fmt"

	"atmostonce/internal/core"
	"atmostonce/internal/denseset"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// Snapshottable is a process the model checker can branch: in addition to
// stepping (sim.Process) it reports do events to the sink it is given and
// supports state save/restore and serialization of its behaviorally
// relevant state for state hashing.
type Snapshottable interface {
	sim.Process
	// SetSink binds the sink the process reports do events to.
	SetSink(sim.DoSink)
	// SaveState returns an opaque deep copy of the process state.
	SaveState() any
	// LoadState restores state saved by SaveState on the same process.
	LoadState(snapshot any)
	// AppendState appends the behaviorally relevant state to buf.
	// Crashed processes should collapse to a constant marker.
	AppendState(buf []byte) []byte
}

// MCConfig configures an exhaustive exploration of a (small) KKβ instance.
type MCConfig struct {
	// N, M, Beta, F are the algorithm parameters (Beta 0 = m).
	N, M, Beta, F int
	// IterStep explores the §6 IterStepKK variant (single level, with the
	// termination flag) instead of plain KKβ. In this mode the checker
	// additionally verifies Lemma 6.2: no terminated process's output set
	// contains a performed job.
	IterStep bool
	// MaxStates aborts the search after visiting this many distinct
	// states (0 = 4e6). Exceeding it returns ErrStateBudget.
	MaxStates int
}

// MCStats summarizes an exhaustive exploration.
type MCStats struct {
	States    int // distinct global states visited
	Terminals int // terminal (all-stopped) states
	MinDo     int // fewest distinct jobs performed over all terminals
	MaxDo     int // most distinct jobs performed over all terminals
	Cycles    int // state-graph cycles encountered (all must be unfair)
}

// MCViolationError describes a property violation with a witness schedule
// that reproduces it via sim.Scripted.
type MCViolationError struct {
	Kind    string // "at-most-once" | "effectiveness" | "fair-cycle" | "lemma-6.2"
	Detail  string
	Witness []sim.Decision
}

// Error implements error.
func (e *MCViolationError) Error() string {
	return fmt.Sprintf("verify: %s violation: %s (witness length %d)", e.Kind, e.Detail, len(e.Witness))
}

// ErrStateBudget is returned when the exploration exceeds MaxStates.
var ErrStateBudget = errors.New("verify: state budget exceeded")

// ExploreKK exhaustively explores every interleaving and crash pattern of
// a KKβ instance, checking:
//
//   - Lemma 4.1: no job is ever performed twice;
//   - Lemma 4.3: no fair cycle exists in the state graph (wait-freedom);
//   - Theorem 4.4 (lower bound): every terminal state has
//     Do(α) ≥ n−(β+m−2);
//   - Lemma 6.2 (IterStep mode): output sets never contain performed jobs.
func ExploreKK(cfg MCConfig) (*MCStats, error) {
	if cfg.Beta == 0 {
		cfg.Beta = cfg.M
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 4_000_000
	}
	lay := core.Layout{M: cfg.M, RowLen: cfg.N, HasFlag: cfg.IterStep}
	mem := shmem.NewSim(lay.Size())
	e := newExplorer(mem, cfg.F, cfg.N, cfg.MaxStates)
	kkProcs := core.NewProcs(core.ProcOptions{Beta: cfg.Beta, Layout: lay, Mem: mem, Sink: e})
	for _, p := range kkProcs {
		e.procs = append(e.procs, p)
	}
	e.onTerminal = func(e *explorer) *MCViolationError {
		if !cfg.IterStep {
			if bound := core.EffectivenessBound(cfg.N, cfg.M, cfg.Beta); len(e.counts) < bound {
				return &MCViolationError{
					Kind:    "effectiveness",
					Detail:  fmt.Sprintf("terminal with Do=%d < n-(β+m-2)=%d", len(e.counts), bound),
					Witness: e.witness(),
				}
			}
			return nil
		}
		// Lemma 6.2: output sets contain no performed jobs.
		for _, p := range kkProcs {
			if p.Status() != sim.Done {
				continue
			}
			var bad int64 = -1
			p.Output(denseset.New()).Ascend(func(v int) bool {
				if e.counts[int64(v)] > 0 {
					bad = int64(v)
					return false
				}
				return true
			})
			if bad >= 0 {
				return &MCViolationError{
					Kind:    "lemma-6.2",
					Detail:  fmt.Sprintf("process %d output contains performed job %d", p.ID(), bad),
					Witness: e.witness(),
				}
			}
		}
		return nil
	}
	if err := e.dfs(0); err != nil {
		return e.stats, err
	}
	return e.stats, nil
}

// ExploreProcs exhaustively explores an arbitrary set of Snapshottable
// processes over a shared memory with crash budget f, checking
// at-most-once safety, fair-cycle freedom and the optional onTerminal
// predicate at every terminal state. It binds every process's sink to the
// explorer.
func ExploreProcs(opts ExploreOpts) (*MCStats, error) {
	e := newExplorer(opts.Mem, opts.F, opts.Jobs, opts.MaxStates)
	for _, p := range opts.Procs {
		p.SetSink(e)
	}
	e.procs = opts.Procs
	if opts.OnTerminal != nil {
		e.onTerminal = func(e *explorer) *MCViolationError {
			return opts.OnTerminal(e.counts, e.witness())
		}
	}
	if err := e.dfs(0); err != nil {
		return e.stats, err
	}
	return e.stats, nil
}

// ExploreOpts configures ExploreProcs.
type ExploreOpts struct {
	// Procs are the processes to explore.
	Procs []Snapshottable
	// Mem is the shared memory all processes use.
	Mem *shmem.SimMem
	// Jobs is the job universe size (for the performed-set state hash).
	Jobs int
	// F is the crash budget.
	F int
	// MaxStates bounds the exploration (0 = 4e6).
	MaxStates int
	// OnTerminal, when non-nil, is evaluated at every terminal state with
	// the performed-count map and a witness factory; return a violation
	// to abort.
	OnTerminal func(performed map[int64]int, witness []sim.Decision) *MCViolationError
}

func newExplorer(mem *shmem.SimMem, f, jobs, maxStates int) *explorer {
	if maxStates == 0 {
		maxStates = 4_000_000
	}
	return &explorer{
		mem:       mem,
		f:         f,
		jobs:      jobs,
		maxStates: maxStates,
		visited:   make(map[string]struct{}),
		onstack:   make(map[string]int),
		counts:    make(map[int64]int),
		stats:     &MCStats{MinDo: jobs + 1, MaxDo: -1},
	}
}

type explorer struct {
	mem       *shmem.SimMem
	procs     []Snapshottable
	f         int
	jobs      int
	maxStates int
	crashes   int

	visited map[string]struct{}
	onstack map[string]int // state key -> depth on current DFS path
	path    []sim.Decision
	events  []sim.Event
	counts  map[int64]int
	dup     *sim.Event

	onTerminal func(*explorer) *MCViolationError

	stats *MCStats
}

// RecordDo implements sim.DoSink.
func (e *explorer) RecordDo(pid int, job int64) {
	ev := sim.Event{PID: pid, Job: job}
	e.events = append(e.events, ev)
	e.counts[job]++
	if e.counts[job] > 1 && e.dup == nil {
		e.dup = &ev
	}
}

func (e *explorer) popEvents(toLen int) {
	for i := len(e.events) - 1; i >= toLen; i-- {
		job := e.events[i].Job
		e.counts[job]--
		if e.counts[job] == 0 {
			delete(e.counts, job)
		}
	}
	e.events = e.events[:toLen]
	e.dup = nil
}

func (e *explorer) key() string {
	buf := make([]byte, 0, 256)
	for _, c := range e.mem.Snapshot() {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], uint64(c))
		buf = append(buf, t[:]...)
	}
	for _, p := range e.procs {
		buf = p.AppendState(buf)
	}
	buf = append(buf, byte(e.crashes))
	// Performed set: jobs done by now-crashed processes are invisible in
	// process state but still constrain the future (a second do of the
	// same job is a violation), so they are part of the behavioral state.
	for j := int64(1); j <= int64(e.jobs); j++ {
		if e.counts[j] > 0 {
			buf = append(buf, byte(j))
		}
	}
	return string(buf)
}

func (e *explorer) witness() []sim.Decision {
	w := make([]sim.Decision, len(e.path))
	copy(w, e.path)
	return w
}

func (e *explorer) dfs(depth int) error {
	k := e.key()
	if d, ok := e.onstack[k]; ok {
		// Cycle: check fairness — does the cycle step every process that
		// is live at cycle entry? If so, an infinite fair execution
		// exists, contradicting Lemma 4.3.
		e.stats.Cycles++
		stepped := make(map[int]bool)
		for _, dec := range e.path[d:] {
			if dec.Kind == sim.DecideStep {
				stepped[dec.PID] = true
			}
		}
		fair := true
		for _, p := range e.procs {
			if p.Status() == sim.Running && !stepped[p.ID()] {
				fair = false
				break
			}
		}
		if fair {
			return &MCViolationError{
				Kind:    "fair-cycle",
				Detail:  fmt.Sprintf("fair cycle of length %d at depth %d", depth-d, d),
				Witness: e.witness(),
			}
		}
		return nil
	}
	if _, ok := e.visited[k]; ok {
		return nil
	}
	e.visited[k] = struct{}{}
	e.stats.States++
	if e.stats.States > e.maxStates {
		return ErrStateBudget
	}

	allStopped := true
	for _, p := range e.procs {
		if p.Status() == sim.Running {
			allStopped = false
			break
		}
	}
	if allStopped {
		e.stats.Terminals++
		do := len(e.counts)
		if do < e.stats.MinDo {
			e.stats.MinDo = do
		}
		if do > e.stats.MaxDo {
			e.stats.MaxDo = do
		}
		if e.onTerminal != nil {
			if v := e.onTerminal(e); v != nil {
				return v
			}
		}
		return nil
	}

	e.onstack[k] = depth
	defer delete(e.onstack, k)

	memSnap := e.mem.Snapshot()
	for _, p := range e.procs {
		if p.Status() != sim.Running {
			continue
		}
		// Branch 1: step p.
		save := p.SaveState()
		evLen := len(e.events)
		e.path = append(e.path, sim.StepOf(p.ID()))
		p.Step()
		if e.dup != nil {
			return &MCViolationError{
				Kind:    "at-most-once",
				Detail:  fmt.Sprintf("job %d performed twice (second by process %d)", e.dup.Job, e.dup.PID),
				Witness: e.witness(),
			}
		}
		if err := e.dfs(depth + 1); err != nil {
			return err
		}
		e.path = e.path[:len(e.path)-1]
		p.LoadState(save)
		e.mem.Restore(memSnap)
		e.popEvents(evLen)

		// Branch 2: crash p (budget permitting).
		if e.crashes < e.f {
			e.path = append(e.path, sim.CrashOf(p.ID()))
			p.Crash()
			e.crashes++
			if err := e.dfs(depth + 1); err != nil {
				return err
			}
			e.crashes--
			e.path = e.path[:len(e.path)-1]
			p.LoadState(save)
		}
	}
	return nil
}
