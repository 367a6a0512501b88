package core

import (
	"fmt"
	"slices"

	"atmostonce/internal/denseset"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// nopSink discards events.
type nopSink struct{}

func (nopSink) RecordDo(int, int64) {}

// ProcOptions configures a single KKβ/IterStepKK process.
type ProcOptions struct {
	// ID is the process identifier p ∈ [1..m].
	ID int
	// Beta is the termination parameter β. The paper requires β ≥ m for
	// termination (Lemma 4.3); correctness holds for any β (Lemma 4.1).
	Beta int
	// Layout locates the instance's shared variables in Mem. Its M is the
	// number of processes m, its RowLen the universe n (the largest job
	// id, the O(log n) of set operations and the bound of POS row scans),
	// and HasFlag selects the §6 IterStepKK variant: a shared termination
	// flag is written when |FREE\TRY| < β and read before every do.
	Layout Layout
	// Mem is the shared memory.
	Mem shmem.Mem
	// Jobs is the initial FREE set, owned by the process from here on. Nil
	// means J = [1..Layout.RowLen], plain KKβ's input; IterStepKK passes
	// the per-process input set of super-jobs.
	Jobs *denseset.Set
	// ReturnFree makes the terminating process output FREE instead of
	// FREE\TRY — the WA_IterStepKK variant of §7.
	ReturnFree bool
	// Sink receives do events; nil discards them.
	Sink sim.DoSink
	// DoCost is the work charged per do action (1 for plain jobs, the
	// super-job size for IterativeKK levels). Zero means 1.
	DoCost uint64
	// Collisions, when non-nil, records Definition 5.2 collision events.
	Collisions *CollisionMatrix
	// NoPosCache disables the POS row pointers: every gather_done pass
	// re-reads each done row from the beginning. Correctness is
	// unaffected (set updates are idempotent); work blows up from
	// O(nm·lgn·lgm) toward O(n²m·lgn)-ish. Ablation use only (DESIGN.md
	// §5.3).
	NoPosCache bool
}

// Proc is one KKβ process: the I/O automaton of Figures 1–2 with the state
// variables STATUS, FREE, TRY, POS, NEXT and Q. The figures' DONE is
// always J \ FREE (every insert into it deletes from FREE, and nothing
// puts an id back), so FREE alone holds both. Each Step performs one
// action (at most one shared-memory access).
type Proc struct {
	id      int
	beta    int
	lay     Layout
	mem     shmem.Mem
	sink    sim.DoSink
	doCost  uint64
	retFree bool
	collide *CollisionMatrix
	lgN     int
	noCache bool

	phase     Phase
	termGath  bool // gather pass is the §6 terminating recomputation
	free      *denseset.Set
	fing      denseset.Finger // where compNext's last select ended in FREE
	try       []int           // ascending, at most m−1 ids, stored after pos
	pos       []int           // pos[q], 1-based; pos[0] unused
	next      int64
	q         int
	work      uint64
	nDone     int    // count of do actions by this process
	nAnnounce int    // count of setNext actions by this process
	nShared   uint64 // shared-memory accesses
	nSetOps   uint64 // set operations charged at O(log n)

	tryCulprit int // process blamed for a pending collision on next

	// set backs free unless ProcOptions.Jobs gives one.
	set denseset.Set

	// A cache line of padding keeps what a step writes here off the line
	// the next process in NewProcs's array reads at every step.
	_ [CacheLineCells * 8]byte
}

var _ sim.Process = (*Proc)(nil)

// NewProc builds a process in its start state (Figure 1: STATUS=comp_next,
// FREE=Jobs, TRY=∅, POS(i)=1, Q=1).
func NewProc(o ProcOptions) *Proc {
	p := &Proc{}
	p.init(o)
	return p
}

// NewProcs builds processes 1..m of one instance (o.ID is ignored, and
// o.Jobs must be nil) in five allocations whatever m: the processes,
// their pointers, their FREE sets from one denseset.Make and their POS
// and TRY rows from one []int.
func NewProcs(o ProcOptions) []*Proc {
	m := o.Layout.M
	procs, ptrs := make([]Proc, m), make([]*Proc, m)
	sets := denseset.Make(m, o.Layout.RowLen)
	rows, w := makeRows(m)
	for i := range procs {
		p := &procs[i]
		p.set = sets[i]
		p.pos = rows[i*w : i*w]
		o.ID = i + 1
		p.init(o)
		ptrs[i] = p
	}
	return ptrs
}

// makeRows returns one array for the POS and TRY rows of m processes and
// the stride of a process's rows in it, whole cache lines so that
// processes updating their rows side by side do not false-share.
func makeRows(m int) ([]int, int) {
	w := (2*m + CacheLineCells) &^ (CacheLineCells - 1)
	return make([]int, m*w), w
}

// init puts p in the start state of the process o describes, keeping the
// storage of its set, POS and TRY: an IterativeKK chain re-initializes one
// process per level this way, its set reserved once for the last level.
func (p *Proc) init(o ProcOptions) {
	m := o.Layout.M
	if o.Beta <= 0 {
		o.Beta = m
	}
	if o.DoCost == 0 {
		o.DoCost = 1
	}
	sink := o.Sink
	if sink == nil {
		sink = nopSink{}
	}
	*p = Proc{
		id:      o.ID,
		beta:    o.Beta,
		lay:     o.Layout,
		mem:     o.Mem,
		sink:    sink,
		doCost:  o.DoCost,
		retFree: o.ReturnFree,
		collide: o.Collisions,
		noCache: o.NoPosCache,
		free:    o.Jobs,
		pos:     p.pos,
		set:     p.set,
	}
	// FREE is sized for the universe here, and TRY's m−1 announcements
	// have room after POS, so no later step — and no Reset to a universe
	// the layout admits — allocates.
	if p.free == nil {
		p.free = &p.set
		p.free.ResetRange(1, o.Layout.RowLen)
	}
	if cap(p.pos) < 2*m+1 {
		p.pos = make([]int, 2*m+1)
	}
	p.pos, p.try = p.pos[:m+1], p.pos[m+1:m+1:2*m+1]
	p.restart(o.Layout.RowLen)
}

// ID implements sim.Process.
func (p *Proc) ID() int { return p.id }

// Reset returns the process to its Figure 1 start state over the dense job
// universe [1..universe], reviving it from end or stop. The storage of
// FREE and TRY is reused, so a warm process restarts without allocating —
// the property the round-based runtime builds on. The caller owns
// re-zeroing the shared-memory region; universe must fit the layout row
// length fixed at construction.
func (p *Proc) Reset(universe int) {
	if universe < 1 || universe > p.lay.RowLen {
		panic(fmt.Sprintf("core: Reset universe %d outside [1..%d]", universe, p.lay.RowLen))
	}
	p.free.ResetRange(1, universe)
	p.restart(universe)
}

// restart empties TRY and the finger and sets every POS pointer, counter
// and the phase to their start values for that universe.
func (p *Proc) restart(universe int) {
	p.phase = PhaseCompNext
	p.termGath = false
	p.fing = denseset.Finger{}
	p.try = p.try[:0]
	for i := 1; i <= p.lay.M; i++ {
		p.pos[i] = 1
	}
	p.next, p.q, p.tryCulprit = 0, 1, 0
	p.work, p.nShared, p.nSetOps = 0, 0, 0
	p.nDone, p.nAnnounce = 0, 0
	p.lgN = ceilLog2(universe + 1)
}

// Status implements sim.Process.
func (p *Proc) Status() sim.Status {
	switch p.phase {
	case PhaseEnd:
		return sim.Done
	case PhaseStop:
		return sim.Crashed
	default:
		return sim.Running
	}
}

// Crash implements sim.Process (the stop_p input action).
func (p *Proc) Crash() { p.phase = PhaseStop }

// Work implements sim.Process: total basic operations in the paper's cost
// model (§2.2) — O(1) per shared access and constant-size local step,
// O(log n) per set operation.
func (p *Proc) Work() uint64 { return p.work }

// Phase exposes the current STATUS for adversaries and tests.
func (p *Proc) Phase() Phase { return p.phase }

// NextJob exposes NEXT_p (0 before the first compNext).
func (p *Proc) NextJob() int64 { return p.next }

// FreeLen returns |FREE_p|.
func (p *Proc) FreeLen() int { return p.free.Len() }

// TryLen returns |TRY_p|.
func (p *Proc) TryLen() int { return len(p.try) }

// Performed returns the number of do actions this process executed.
func (p *Proc) Performed() int { return p.nDone }

// Announced returns the number of setNext actions this process executed.
func (p *Proc) Announced() int { return p.nAnnounce }

// SharedAccesses returns the number of shared-register reads and writes
// this process performed.
func (p *Proc) SharedAccesses() uint64 { return p.nShared }

// SetOps returns the number of set operations charged at O(log n) in the
// paper's cost model. work ≈ SharedAccesses + SetOps·⌈lg n⌉ + O(steps).
func (p *Proc) SetOps() uint64 { return p.nSetOps }

// PosOf returns the POS_p(q) row pointer (1-based q).
func (p *Proc) PosOf(q int) int { return p.pos[q] }

// FreeContains reports whether job v is in FREE_p.
func (p *Proc) FreeContains(v int) bool { return p.free.Contains(v) }

// Output writes the set the process returned on termination (IterStepKK's
// FREE\TRY, or FREE for the Write-All variant) into dst and returns dst;
// before termination it returns nil and leaves dst alone.
func (p *Proc) Output(dst *denseset.Set) *denseset.Set {
	if p.phase != PhaseEnd {
		return nil
	}
	dst.Clear()
	p.free.Ascend(func(v int) bool {
		if p.retFree || !p.tryHas(v) {
			dst.Insert(v)
		}
		return true
	})
	return dst
}

// Step implements sim.Process: perform the single enabled action.
func (p *Proc) Step() {
	switch p.phase {
	case PhaseCompNext:
		p.stepCompNext()
	case PhaseSetNext:
		p.stepSetNext()
	case PhaseGatherTry:
		p.stepGatherTry()
	case PhaseGatherDone:
		p.stepGatherDone()
	case PhaseCheck:
		p.stepCheck()
	case PhaseCheckFlag:
		p.stepCheckFlag()
	case PhaseDo:
		p.stepDo()
	case PhaseDoneWrite:
		p.stepDoneWrite()
	case PhaseTermFlag:
		p.stepTermFlag()
	case PhaseEnd, PhaseStop:
		// No enabled actions; Step must not be called here (the engine
		// never does). Keep it a no-op for robustness.
	}
}

// tryAdd inserts v into TRY in order and reports whether it was absent.
func (p *Proc) tryAdd(v int) bool {
	i, found := slices.BinarySearch(p.try, v)
	if !found {
		p.try = slices.Insert(p.try, i, v)
	}
	return !found
}

// tryHas reports whether v is in TRY.
func (p *Proc) tryHas(v int) bool {
	_, found := slices.BinarySearch(p.try, v)
	return found
}

// chargeSet charges k set operations at O(log n) each.
func (p *Proc) chargeSet(k int) {
	p.work += uint64(k * p.lgN)
	p.nSetOps += uint64(k)
}

// stepCompNext is action compNext_p of Figure 2.
func (p *Proc) stepCompNext() {
	// |FREE \ TRY|: TRY holds announcements by other processes, which may
	// or may not still be in FREE.
	inFree := 0
	for _, v := range p.try {
		if p.free.Contains(v) {
			inFree++
		}
	}
	p.chargeSet(len(p.try) + 1)
	if p.free.Len()-inFree < p.beta {
		if p.lay.HasFlag {
			p.phase = PhaseTermFlag
			return
		}
		p.terminate()
		return
	}
	f, m := p.free.Len(), p.lay.M
	var idx int
	if f-(m-1) >= m {
		// TMP = (|FREE|-(m-1))/m ≥ 1: take the first element of the p-th
		// of m intervals: ⌊(p-1)·TMP⌋+1.
		idx = (p.id-1)*(f-m+1)/m + 1
	} else {
		idx = p.id
	}
	v, ok := p.free.SelectFrom(&p.fing, p.try, idx)
	p.chargeSet(len(p.try) + 1) // rank(FREE,TRY,·) costs O(|TRY|·log n)
	if !ok {
		// Unreachable for β ≥ m (|FREE\TRY| ≥ β ≥ idx; see §3). For β < m
		// the paper guarantees correctness but not termination; we choose
		// to terminate rather than fail.
		p.terminate()
		return
	}
	p.next = int64(v)
	p.q = 1
	p.try = p.try[:0]
	p.tryCulprit = 0
	p.phase = PhaseSetNext
	p.work++
}

// stepSetNext is action setNext_p: announce NEXT in shared memory.
func (p *Proc) stepSetNext() {
	p.mem.Write(p.lay.NextAddr(p.id), p.next)
	p.work++
	p.nShared++
	p.nAnnounce++
	p.phase = PhaseGatherTry
}

// stepGatherTry is one iteration of the gatherTry_p read loop.
func (p *Proc) stepGatherTry() {
	if p.q != p.id {
		v := p.mem.Read(p.lay.NextAddr(p.q))
		p.work++
		p.nShared++
		if v > 0 {
			if p.tryAdd(int(v)) {
				p.chargeSet(1)
			}
			if v == p.next && p.tryCulprit == 0 {
				p.tryCulprit = p.q // Definition 5.2(ii), gatherTry case
			}
		}
	} else {
		p.work++
	}
	if p.q+1 <= p.lay.M {
		p.q++
		return
	}
	p.q = 1
	p.phase = PhaseGatherDone
	if p.noCache {
		// Ablation: forget row progress, re-scan every done row in full.
		for q := 1; q <= p.lay.M; q++ {
			if q != p.id {
				p.pos[q] = 1
			}
		}
	}
}

// stepGatherDone is one iteration of the gatherDone_p read loop. While row
// q yields fresh entries the action re-reads the same row at the advanced
// POS pointer (the paper's POS_p(Q_p) bookkeeping).
func (p *Proc) stepGatherDone() {
	if p.q != p.id && p.pos[p.q] <= p.lay.RowLen {
		v := p.mem.Read(p.lay.DoneAddr(p.q, p.pos[p.q]))
		p.work++
		p.nShared++
		if v > 0 {
			if v == p.next && p.tryCulprit == 0 && !p.tryHas(int(v)) {
				p.tryCulprit = p.q // Definition 5.2(ii), gatherDone case
			}
			p.fing.Delete(p.free, int(v))
			p.chargeSet(2)
			p.pos[p.q]++
			return // Q_p unchanged: keep draining this row next action.
		}
	} else {
		p.work++
	}
	p.q++
	if p.q > p.lay.M {
		p.q = 1
		if p.termGath {
			p.terminate()
			return
		}
		p.phase = PhaseCheck
	}
}

// stepCheck is action check_p: is it safe to perform NEXT?
func (p *Proc) stepCheck() {
	inTry := p.tryHas(int(p.next))
	inDone := !p.free.Contains(int(p.next)) // DONE = J \ FREE
	p.chargeSet(2)
	if !inTry && !inDone {
		if p.lay.HasFlag {
			p.phase = PhaseCheckFlag
		} else {
			p.phase = PhaseDo
		}
		return
	}
	// Collision (Definition 5.2): p wanted NEXT but another process
	// announced or completed it during this gather pass.
	if p.collide != nil && p.tryCulprit != 0 {
		p.collide.Record(p.id, p.tryCulprit)
	}
	p.phase = PhaseCompNext
}

// stepCheckFlag is IterStepKK's extra flag read between check and do (§6).
func (p *Proc) stepCheckFlag() {
	v := p.mem.Read(p.lay.FlagAddr())
	p.work++
	p.nShared++
	if v != 0 {
		p.beginTermGather()
		return
	}
	p.phase = PhaseDo
}

// stepDo is the output action do_{p,j}.
func (p *Proc) stepDo() {
	p.sink.RecordDo(p.id, p.next)
	p.work += p.doCost
	p.nDone++
	p.phase = PhaseDoneWrite
}

// stepDoneWrite is action done_p: publish the performed job.
func (p *Proc) stepDoneWrite() {
	p.mem.Write(p.lay.DoneAddr(p.id, p.pos[p.id]), p.next)
	p.work++
	p.nShared++
	p.fing.Delete(p.free, int(p.next))
	p.chargeSet(2)
	p.pos[p.id]++
	p.phase = PhaseCompNext
}

// stepTermFlag is IterStepKK's terminating flag write (§6): raise the flag,
// then recompute FREE and TRY with a fresh gather pass before returning.
func (p *Proc) stepTermFlag() {
	p.mem.Write(p.lay.FlagAddr(), 1)
	p.work++
	p.nShared++
	p.beginTermGather()
}

// beginTermGather starts the final FREE/TRY recomputation pass of §6.
func (p *Proc) beginTermGather() {
	p.q = 1
	p.try = p.try[:0]
	p.tryCulprit = 0
	p.termGath = true
	p.phase = PhaseGatherTry
}

// terminate enters end; FREE and TRY stay as they are for Output.
func (p *Proc) terminate() { p.phase = PhaseEnd }

// ceilLog2 returns max(1, ceil(log2(v))) for v ≥ 1.
func ceilLog2(v int) int {
	r, pw := 0, 1
	for pw < v {
		pw <<= 1
		r++
	}
	if r < 1 {
		return 1
	}
	return r
}
