// Package atmostonce performs n jobs on m concurrent workers with
// at-most-once semantics, using only atomic read/write shared memory — no
// locks, no compare-and-swap, no test-and-set on the algorithm path.
//
// It implements the wait-free deterministic algorithms of Kentros &
// Kiayias, "Solving the At-Most-Once Problem with Nearly Optimal
// Effectiveness" (PODC 2011 / TCS 2013):
//
//   - KKβ: effectiveness n−(β+m−2), which for β=m is within an additive m
//     of the n−m+1 upper bound over all algorithms (Theorem 4.4);
//   - IterativeKK(ε): effectiveness n−O(m²·log n·log m) with work
//     O(n+m^{3+ε}·log n) — simultaneously effectiveness- and work-optimal
//     for m = O((n/log n)^{1/(3+ε)}) (Theorem 6.4);
//   - WA_IterativeKK(ε): a Write-All solution with the same work bound
//     (Theorem 7.1).
//
// The package offers three modes. Run executes a fixed batch of jobs on
// real goroutines over sync/atomic registers. NewDispatcher serves a
// continuous job stream: it batches submissions into rounds across
// independent KKβ shards and carries each round's unperformed residue into
// the next, so the per-round effectiveness tail is deferred, never lost;
// jobs enter through Dispatcher.Do as Task descriptors carrying
// deadlines, priorities and completion callbacks.
// Simulate executes the algorithms under a deterministic adversarial
// scheduler with crash injection and returns effectiveness/work/collision
// measurements — the mode used to reproduce the paper's results
// (regenerate EXPERIMENTS.md with cmd/amo-bench).
package atmostonce

import (
	"errors"
	"fmt"
	"slices"

	"atmostonce/internal/adversary"
	"atmostonce/internal/conc"
	"atmostonce/internal/core"
	"atmostonce/internal/sim"
)

// Config configures a concurrent at-most-once run.
type Config struct {
	// Jobs is n, the number of jobs (identified 1..n).
	Jobs int
	// Workers is m, the number of worker goroutines.
	Workers int
	// Beta is KKβ's termination parameter β ≥ m; 0 selects β = m, the
	// effectiveness-optimal choice, or for an Iterative run the paper's
	// 3m² per level. Larger β makes workers give up earlier (fewer jobs
	// done, less contention); β = 3m² gives the paper's O(nm·log n·log m)
	// work bound.
	Beta int
	// Iterative selects IterativeKK(ε), the work-optimal variant, with
	// ε = 1/EpsDenom (EpsDenom 0 = 1). Preferable when m is small
	// relative to n and total work matters.
	Iterative bool
	EpsDenom  int
	// Seed, when nonzero, schedules the run: a random adversary seeded
	// with it picks every worker's every step on the calling goroutine, so
	// the run repeats exactly from its seed. 0 runs the workers free.
	Seed int64
	// CrashAfter optionally stops worker i+1 once it has taken
	// CrashAfter[i] steps (0 = never); used to exercise fault tolerance.
	// It schedules the run as Seed does. At least one worker must never
	// crash.
	CrashAfter []uint64
}

// Summary reports the outcome of a concurrent run.
type Summary struct {
	// Performed is the number of distinct jobs executed (Do(α)).
	Performed int
	// Remaining is Jobs − Performed: work left unperformed. Theorem 4.4
	// bounds it by β+m−2 when no worker crashes mid-announcement.
	Remaining int
	// Unperformed lists the job ids left undone, in ascending order —
	// feed them to a follow-up round (see examples/retryrounds). Nil when
	// everything was performed.
	Unperformed []int
	// Duplicates counts duplicate executions; always 0 (Lemma 4.1). It is
	// reported so harnesses can assert it.
	Duplicates int
	// Crashed is the number of workers that crashed.
	Crashed int
}

// Run executes fn at most once per job on cfg.Workers goroutines. fn
// receives the worker id (1-based) and job id (1..Jobs). It returns an
// error for invalid configurations; job-level incompleteness is not an
// error (see Summary.Remaining — no wait-free algorithm can avoid it,
// Theorem 2.1).
func Run(cfg Config, fn func(worker, job int)) (*Summary, error) {
	opts := conc.Options{
		N: cfg.Jobs, M: cfg.Workers, Beta: cfg.Beta,
		Iterative: cfg.Iterative, EpsDenom: cfg.EpsDenom, DoFn: fn,
	}
	if cfg.Seed != 0 || cfg.CrashAfter != nil {
		opts.Adversary = sim.NewRandom(cfg.Seed)
	}
	if cfg.CrashAfter != nil {
		if len(cfg.CrashAfter) != cfg.Workers {
			return nil, fmt.Errorf("conc: invalid options: CrashAfter has %d entries for m=%d", len(cfg.CrashAfter), cfg.Workers)
		}
		if !slices.Contains(cfg.CrashAfter, 0) {
			return nil, errors.New("conc: invalid options: all processes crash (need f < m)")
		}
		opts.Adversary = &sim.StepBudget{Steps: cfg.CrashAfter, Then: opts.Adversary}
	}
	res, err := conc.Run(opts)
	if err != nil {
		return nil, err
	}
	return &Summary{
		Performed:   res.Distinct,
		Remaining:   cfg.Jobs - res.Distinct,
		Unperformed: res.Unperformed,
		Duplicates:  res.Duplicates,
		Crashed:     res.Crashed,
	}, nil
}

// WriteAll executes fn at LEAST once per job (cells of a Write-All array)
// on workers goroutines using WA_IterativeKK(ε=1), and returns the number
// of redundant executions. Unlike Run, completion is guaranteed as long
// as one worker survives.
//
// Because duplicates are allowed, fn may be invoked CONCURRENTLY for the
// same cell by different workers; it must be idempotent and
// concurrency-safe (e.g. an atomic store). Run's at-most-once guarantee
// has no such requirement — there, fn runs at most once per job, period.
func WriteAll(cells, workers int, fn func(worker, cell int)) (redundant int, err error) {
	res, err := conc.Run(conc.Options{N: cells, M: workers, WriteAll: true, DoFn: fn})
	if err != nil {
		return 0, err
	}
	if res.Distinct != cells {
		// Unreachable without crash injection (Theorem 7.1); defensive.
		return 0, fmt.Errorf("atmostonce: write-all covered %d of %d cells", res.Distinct, cells)
	}
	return res.Events - cells, nil
}

// Scheduler selects the adversary driving a simulation.
type Scheduler int

// Available simulation schedulers.
const (
	// RoundRobin steps processes cyclically, no crashes.
	RoundRobin Scheduler = iota + 1
	// RandomSched steps a random live process; CrashProb and Seed apply.
	RandomSched
	// Tightness is the Theorem 4.4 worst-case strategy: m−1 processes
	// crash holding distinct announced jobs; effectiveness lands on
	// exactly n−(β+m−2).
	Tightness
	// Staircase maximizes view staleness to provoke collisions.
	Staircase
	// Alternator steps processes in descending id order each round.
	Alternator
)

// SimConfig configures a simulated adversarial execution.
type SimConfig struct {
	// Jobs (n), Workers (m) and Beta (β; 0 = m, or 3m² when Iterative) as
	// in Config.
	Jobs, Workers, Beta int
	// Iterative selects IterativeKK(ε = 1/EpsDenom).
	Iterative bool
	EpsDenom  int
	// Scheduler picks the adversary (default RoundRobin).
	Scheduler Scheduler
	// Crashes is the crash budget f < m (Tightness requires m−1).
	Crashes int
	// CrashProb and Seed parameterize RandomSched.
	CrashProb float64
	Seed      int64
	// TrackCollisions enables Definition 5.2 collision accounting
	// (plain KKβ only: an Iterative run refuses it with ErrIncompatible).
	TrackCollisions bool
	// MaxSteps aborts runaway executions. 0 means max(500 M, 16·n·m):
	// KK under RandomSched takes ≈ 3.1·n·m steps at m = 64, which passes
	// a flat 500 M from n = 2^22 on.
	MaxSteps uint64
}

// SimReport is the measured outcome of a simulated execution.
type SimReport struct {
	// Performed is Do(α); Duplicates must be 0 (Lemma 4.1).
	Performed  int
	Duplicates int
	// Work is total work in the paper's cost model; Steps counts actions.
	Work  uint64
	Steps uint64
	// Crashes is the number of injected failures.
	Crashes int
	// EffectivenessLB is n−(β+m−2) (Theorem 4.4) for plain KKβ runs and
	// 0 for Iterative ones.
	EffectivenessLB int
	// Collisions is the pairwise collision matrix when tracking was
	// requested; index [p-1][q-1] counts p colliding with q.
	Collisions [][]uint64
}

// ErrIncompatible marks invalid simulation option combinations.
var ErrIncompatible = errors.New("atmostonce: incompatible simulation options")

// Simulate runs one adversarial execution and reports its measurements.
func Simulate(cfg SimConfig) (*SimReport, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps(cfg.Jobs, cfg.Workers)
	}
	if cfg.Scheduler == 0 {
		cfg.Scheduler = RoundRobin
	}
	if cfg.Iterative && (cfg.Scheduler == Tightness || cfg.TrackCollisions) {
		return nil, fmt.Errorf("%w: Tightness and TrackCollisions target plain KKβ", ErrIncompatible)
	}
	if cfg.Scheduler == Tightness {
		cfg.Crashes = cfg.Workers - 1
	}
	adv, err := buildAdversary(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Iterative {
		s, err := core.NewIterSystem(core.IterConfig{
			N: cfg.Jobs, M: cfg.Workers, EpsDenom: cfg.EpsDenom, F: cfg.Crashes, Beta: cfg.Beta,
		})
		if err != nil {
			return nil, err
		}
		rep, err := s.Run(adv, cfg.MaxSteps)
		if err != nil {
			return nil, err
		}
		return convertReport(rep, 0, nil), nil
	}
	s, err := core.NewSystem(core.Config{
		N: cfg.Jobs, M: cfg.Workers, Beta: cfg.Beta, F: cfg.Crashes,
		TrackCollisions: cfg.TrackCollisions,
	})
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(adv, cfg.MaxSteps)
	if err != nil {
		return nil, err
	}
	return convertReport(rep, core.EffectivenessBound(cfg.Jobs, cfg.Workers, cfg.Beta), s.Collisions), nil
}

// defaultMaxSteps is the step limit of a SimConfig whose MaxSteps is 0.
func defaultMaxSteps(n, m int) uint64 {
	return max(500_000_000, 16*uint64(n)*uint64(m))
}

func buildAdversary(cfg SimConfig) (sim.Adversary, error) {
	switch cfg.Scheduler {
	case RoundRobin:
		return &sim.RoundRobin{}, nil
	case RandomSched:
		a := sim.NewRandom(cfg.Seed)
		a.CrashProb = cfg.CrashProb
		return a, nil
	case Tightness:
		return &adversary.Tightness{}, nil
	case Staircase:
		return &adversary.Staircase{}, nil
	case Alternator:
		return &adversary.Alternator{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown scheduler %d", ErrIncompatible, cfg.Scheduler)
	}
}

func convertReport(rep *sim.Result, lb int, coll *core.CollisionMatrix) *SimReport {
	out := &SimReport{
		Performed:       rep.Distinct,
		Duplicates:      rep.Duplicates,
		Work:            rep.Work,
		Steps:           rep.Steps,
		Crashes:         rep.Crashes,
		EffectivenessLB: lb,
	}
	if coll != nil {
		m := coll.M()
		out.Collisions = make([][]uint64, m)
		for p := 1; p <= m; p++ {
			out.Collisions[p-1] = make([]uint64, m)
			for q := 1; q <= m; q++ {
				out.Collisions[p-1][q-1] = coll.Count(p, q)
			}
		}
	}
	return out
}

// EffectivenessLowerBound returns Theorem 4.4's guarantee n−(β+m−2): the
// number of jobs KKβ completes in the worst case.
func EffectivenessLowerBound(n, m, beta int) int {
	return core.EffectivenessBound(n, m, beta)
}

// EffectivenessUpperBound returns Theorem 2.1's limit n−f on the
// effectiveness of ANY at-most-once algorithm under f crashes.
func EffectivenessUpperBound(n, f int) int { return core.UpperBound(n, f) }
