package core

import (
	"fmt"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// Config describes a plain KKβ instance solving the at-most-once problem
// for n jobs J = [1..n] with m processes.
type Config struct {
	// N is the number of jobs (n ≥ m required by the model, §2.2).
	N int
	// M is the number of processes.
	M int
	// Beta is the termination parameter β; 0 means β = m, the
	// effectiveness-optimal choice of Theorem 4.4.
	Beta int
	// F is the crash budget f < m available to the adversary; the world
	// clamps it to m−1.
	F int
	// TrackCollisions enables Definition 5.2 collision accounting.
	TrackCollisions bool
	// NoPosCache is the DESIGN.md §5.3 ablation: disable the POS row
	// pointers so every gather pass re-reads the done rows from scratch.
	NoPosCache bool
}

func (c *Config) normalize() error {
	if c.M < 1 {
		return fmt.Errorf("core: need at least one process, got m=%d", c.M)
	}
	if c.N < c.M {
		return fmt.Errorf("core: need n ≥ m, got n=%d m=%d", c.N, c.M)
	}
	if c.Beta == 0 {
		c.Beta = c.M
	}
	return nil
}

// System is an assembled KKβ instance: shared memory, processes and world,
// ready to run under any adversary.
type System struct {
	Cfg        Config
	Mem        *shmem.SimMem
	World      *sim.World
	Procs      []*Proc
	Collisions *CollisionMatrix
	Layout     Layout
}

// NewSystem assembles a KKβ instance per Config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	lay := Layout{M: cfg.M, RowLen: cfg.N}
	mem := shmem.NewSim(lay.Size())
	var coll *CollisionMatrix
	if cfg.TrackCollisions {
		coll = NewCollisionMatrix(cfg.M)
	}
	procs := NewProcs(ProcOptions{
		Beta:       cfg.Beta,
		Layout:     lay,
		Mem:        mem,
		Collisions: coll,
		NoPosCache: cfg.NoPosCache,
	})
	world := sim.Assemble(cfg.M, cfg.N, mem, cfg.F, func(id int, sink sim.DoSink) sim.Process {
		procs[id-1].SetSink(sink)
		return procs[id-1]
	})
	return &System{
		Cfg:        cfg,
		Mem:        mem,
		World:      world,
		Procs:      procs,
		Collisions: coll,
		Layout:     lay,
	}, nil
}

// Run executes the system under adv. maxSteps ≤ 0 means unlimited; a fair
// adversary always terminates by Lemma 4.3, so tests pass a generous limit
// to convert a wait-freedom bug into a failure instead of a hang.
func (s *System) Run(adv sim.Adversary, maxSteps uint64) (*sim.Result, error) {
	return sim.Run(s.World, adv, maxSteps)
}

// EffectivenessBound returns Theorem 4.4's exact effectiveness
// n − (β + m − 2) for a configuration.
func EffectivenessBound(n, m, beta int) int {
	if beta == 0 {
		beta = m
	}
	return n - (beta + m - 2)
}

// UpperBound returns Theorem 2.1's effectiveness upper bound n − f.
func UpperBound(n, f int) int { return n - f }
