package core

import (
	"fmt"
	"math"

	"atmostonce/internal/denseset"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// SuperJobSizes computes the size cascade of IterativeKK(ε) (Figure 3,
// lines 01/06/11) for ε = 1/epsDenom:
//
//	s_0 = m·lg n·lg m,   s_i = m^{1-iε}·lg n·lg^{1+i} m (i = 1..1/ε),   1.
//
// Two engineering adjustments keep the map() of §6 lossless while staying
// within constant factors of the paper's sizes: every size is rounded up
// to a power of two, and the cascade is forced non-increasing, so each
// level's size divides the previous one and super-job boundaries nest
// exactly. Consecutive duplicate sizes are merged.
func SuperJobSizes(n, m, epsDenom int) []int {
	lgn := float64(ceilLog2(n))
	lgm := float64(ceilLog2(m))
	prev := nextPow2(int(math.Ceil(float64(m) * lgn * lgm)))
	if prev < 1 {
		prev = 1
	}
	sizes := []int{prev}
	for i := 1; i <= epsDenom; i++ {
		exp := 1 - float64(i)/float64(epsDenom)
		v := math.Pow(float64(m), exp) * lgn * math.Pow(lgm, float64(1+i))
		s := nextPow2(int(math.Ceil(v)))
		if s > prev {
			s = prev
		}
		if s < 1 {
			s = 1
		}
		if s != prev {
			sizes = append(sizes, s)
			prev = s
		}
	}
	if prev != 1 {
		sizes = append(sizes, 1)
	}
	return sizes
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Blocks returns the number of super-jobs of size s over n jobs.
func Blocks(n, s int) int { return (n + s - 1) / s }

// BlockJobs returns the inclusive job range [lo, hi] covered by the
// 1-based super-job b of size s over n jobs.
func BlockJobs(n, s, b int) (lo, hi int) {
	lo = (b-1)*s + 1
	hi = b * s
	if hi > n {
		hi = n
	}
	return lo, hi
}

// MapBlocks is the function map(SET1, size1, size2) of §6: it maps a set
// of super-jobs of size s1 to the super-jobs of size s2 covering the same
// jobs, written into dst, which it returns. Because s2 divides s1 (see
// SuperJobSizes) the mapping is exact: a job always belongs to the same
// super-job of a given size, independent of the input set, so the
// at-most-once property is preserved across levels (Theorem 6.3).
func MapBlocks(dst, set *denseset.Set, n, s1, s2 int) *denseset.Set {
	ratio := s1 / s2
	b2max := Blocks(n, s2)
	dst.Clear()
	set.Ascend(func(b1 int) bool {
		first := (b1-1)*ratio + 1
		dst.InsertRange(first, min(first+ratio-1, b2max))
		return true
	})
	return dst
}

// IterConfig describes an IterativeKK(ε) instance (Figure 3) or its
// Write-All variant WA_IterativeKK(ε) (Figure 4).
type IterConfig struct {
	// N is the number of jobs.
	N int
	// M is the number of processes.
	M int
	// EpsDenom is 1/ε (a positive integer, per §6). 0 means 1 (ε = 1).
	EpsDenom int
	// F is the crash budget.
	F int
	// WriteAll selects the §7 variant: levels return FREE instead of
	// FREE\TRY and every process directly performs its residual set at
	// the end (Figure 4 lines 14–16).
	WriteAll bool
	// Beta overrides the per-level termination parameter; 0 means the
	// paper's 3m².
	Beta int
}

func (c *IterConfig) normalize() error {
	if c.M < 1 {
		return fmt.Errorf("core: need at least one process, got m=%d", c.M)
	}
	if c.N < c.M {
		return fmt.Errorf("core: need n ≥ m, got n=%d m=%d", c.N, c.M)
	}
	if c.EpsDenom <= 0 {
		c.EpsDenom = 1
	}
	if c.Beta == 0 {
		c.Beta = 3 * c.M * c.M
	}
	return nil
}

// Level is one IterStepKK invocation's static description.
type Level struct {
	Size   int // super-job size at this level
	Blocks int // number of super-jobs
	Layout Layout
}

// LevelStat records one process's passage through one IterStepKK level.
type LevelStat struct {
	// Size and Blocks describe the level.
	Size, Blocks int
	// Input is |FREE| at entry, Performed the super-jobs done by THIS
	// process, Output the size of the returned set.
	Input, Performed, Output int
	// Degenerate marks a level whose input was below β, so the process
	// terminated it immediately via the flag path without performing
	// anything (the out-of-regime collapse discussed in EXPERIMENTS.md).
	Degenerate bool
}

// IterProc chains one process through all IterStepKK levels of
// IterativeKK(ε). It is itself a sim.Process: each Step delegates to the
// level's KK process; when that terminates, its output set is mapped to
// the next level and the process restarts there. One Proc serves the
// whole chain, its sets reserved once for the last level's universe, so
// a level change allocates nothing. Process asynchrony across levels is
// preserved — one process may be at level 2 while another is still at
// level 0, exactly as in the paper.
type IterProc struct {
	id     int
	cfg    IterConfig
	levels []Level
	mem    shmem.Mem
	sink   sim.DoSink

	level    int
	proc     Proc         // the level's KK process; FREE is proc.sets[0]
	inner    *Proc        // &proc while a level runs; nil past the last, draining out
	out      denseset.Set // the level's output; Write-All's residue at the end
	work     uint64       // accumulated work of finished levels
	crashed  bool
	ended    bool
	stats    []LevelStat
	curInput int // |FREE| at entry of the current level
}

var _ sim.Process = (*IterProc)(nil)

// newIterProc builds the process at level 0 with FREE = map(J, 1, s_0).
func newIterProc(id int, cfg IterConfig, levels []Level, mem shmem.Mem, sink sim.DoSink) *IterProc {
	p := &IterProc{id: id, cfg: cfg, levels: levels, mem: mem, sink: sink, stats: make([]LevelStat, 0, len(levels))}
	last := levels[len(levels)-1].Blocks
	for i := range p.proc.sets {
		p.proc.sets[i].Reserve(last)
	}
	p.out.Reserve(last)
	p.startLevel(nil)
	return p
}

// startLevel re-initializes the chain's process at p.level with FREE =
// jobs (nil: all the level's super-jobs).
func (p *IterProc) startLevel(jobs *denseset.Set) {
	lv := p.levels[p.level]
	p.proc.init(ProcOptions{
		ID:         p.id,
		M:          p.cfg.M,
		Beta:       p.cfg.Beta,
		Layout:     lv.Layout,
		Mem:        p.mem,
		Jobs:       jobs,
		Universe:   lv.Blocks,
		IterStep:   true,
		ReturnFree: p.cfg.WriteAll,
		Sink:       p,
		DoCost:     uint64(lv.Size),
	})
	p.inner = &p.proc
	p.curInput = p.proc.FreeLen()
}

// RecordDo is the level process's do sink: it expands a super-job do
// into one do per covered job.
func (p *IterProc) RecordDo(pid int, job int64) {
	lo, hi := BlockJobs(p.cfg.N, p.levels[p.level].Size, int(job))
	for j := lo; j <= hi; j++ {
		if p.sink != nil {
			p.sink.RecordDo(pid, int64(j))
		}
	}
}

// ID implements sim.Process.
func (p *IterProc) ID() int { return p.id }

// Status implements sim.Process.
func (p *IterProc) Status() sim.Status {
	switch {
	case p.crashed:
		return sim.Crashed
	case p.ended:
		return sim.Done
	default:
		return sim.Running
	}
}

// Crash implements sim.Process.
func (p *IterProc) Crash() {
	p.crashed = true
	if p.inner != nil {
		p.inner.Crash()
	}
}

// Work implements sim.Process.
func (p *IterProc) Work() uint64 {
	w := p.work
	if p.inner != nil {
		w += p.inner.Work()
	}
	return w
}

// Level returns the level the process is currently executing.
func (p *IterProc) Level() int { return p.level }

// LevelStats returns per-level statistics for the levels this process has
// completed so far.
func (p *IterProc) LevelStats() []LevelStat {
	out := make([]LevelStat, len(p.stats))
	copy(out, p.stats)
	return out
}

// recordLevel appends the finished inner process's statistics; output is
// the size of the set it returned.
func (p *IterProc) recordLevel(input, output int) {
	lv := p.levels[p.level]
	p.stats = append(p.stats, LevelStat{
		Size:       lv.Size,
		Blocks:     lv.Blocks,
		Input:      input,
		Performed:  p.inner.Performed(),
		Output:     output,
		Degenerate: p.inner.Performed() == 0 && input < p.cfg.Beta,
	})
}

// Step implements sim.Process.
func (p *IterProc) Step() {
	if p.inner == nil {
		p.stepDrain()
		return
	}
	p.inner.Step()
	if p.inner.Status() != sim.Done {
		return
	}
	// Inner IterStepKK terminated: map its output to the next level.
	out := p.inner.Output(&p.out)
	p.work += p.inner.Work()
	p.recordLevel(p.curInput, out.Len())
	if p.level+1 < len(p.levels) {
		cur, next := p.levels[p.level], p.levels[p.level+1]
		free := MapBlocks(&p.proc.sets[0], out, p.cfg.N, cur.Size, next.Size)
		p.work += uint64(free.Len()) // map() cost: building the new set
		p.level++
		p.startLevel(free)
		return
	}
	// Past the last level (size 1).
	p.inner = nil
	p.ended = !p.cfg.WriteAll || out.Len() == 0 // else Figure 4, lines 14–16
}

// stepDrain performs one residual do_{p,i} of Figure 4 lines 14–16, the
// least job left.
func (p *IterProc) stepDrain() {
	v, _ := p.out.Min()
	p.out.Delete(v)
	if p.sink != nil {
		p.sink.RecordDo(p.id, int64(v))
	}
	p.work++
	p.ended = p.out.Len() == 0
}

// IterSystem is an assembled IterativeKK(ε) (or WA_IterativeKK(ε)) run.
type IterSystem struct {
	Cfg    IterConfig
	Sizes  []int
	Levels []Level
	Mem    *shmem.SimMem
	World  *sim.World
	Procs  []*IterProc
}

// PlanLevels normalizes the config and computes the level descriptors and
// the total number of shared registers required. Callers that provide
// their own memory (e.g. the concurrent runtime) use this to size it.
func PlanLevels(cfg IterConfig) (IterConfig, []Level, int, error) {
	if err := cfg.normalize(); err != nil {
		return cfg, nil, 0, err
	}
	sizes := SuperJobSizes(cfg.N, cfg.M, cfg.EpsDenom)
	levels := make([]Level, len(sizes))
	base := 0
	for i, s := range sizes {
		b := Blocks(cfg.N, s)
		lay := Layout{Base: base, M: cfg.M, RowLen: b, HasFlag: true}
		levels[i] = Level{Size: s, Blocks: b, Layout: lay}
		base += lay.Size()
	}
	return cfg, levels, base, nil
}

// NewIterProcsOn builds the per-process level chains over an existing
// memory sized by PlanLevels. Sinks default to nil; bind one with SetSink
// before stepping.
func NewIterProcsOn(cfg IterConfig, levels []Level, mem shmem.Mem) []*IterProc {
	procs := make([]*IterProc, cfg.M)
	for i := 0; i < cfg.M; i++ {
		procs[i] = newIterProc(i+1, cfg, levels, mem, nil)
	}
	return procs
}

// SetSink rebinds the do-event sink.
func (p *IterProc) SetSink(s sim.DoSink) { p.sink = s }

// NewIterSystem assembles an IterativeKK(ε) instance. Each level's shared
// variables (next array, done matrix, termination flag) occupy a disjoint
// region of one shared memory.
func NewIterSystem(cfg IterConfig) (*IterSystem, error) {
	cfg, levels, total, err := PlanLevels(cfg)
	if err != nil {
		return nil, err
	}
	mem := shmem.NewSim(total)
	procs := make([]*IterProc, cfg.M)
	world := sim.Assemble(cfg.M, cfg.N, mem, cfg.F, func(id int, sink sim.DoSink) sim.Process {
		procs[id-1] = newIterProc(id, cfg, levels, mem, sink)
		return procs[id-1]
	})
	sizes := make([]int, len(levels))
	for i, lv := range levels {
		sizes[i] = lv.Size
	}
	return &IterSystem{Cfg: cfg, Sizes: sizes, Levels: levels, Mem: mem, World: world, Procs: procs}, nil
}

// Run executes the system under adv; see System.Run.
func (s *IterSystem) Run(adv sim.Adversary, maxSteps uint64) (*Report, error) {
	return run(s.World, s.Cfg.N, adv, maxSteps)
}
