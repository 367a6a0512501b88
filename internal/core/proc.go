package core

import (
	"fmt"

	"atmostonce/internal/denseset"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// DoSink receives do_{p,j} events. sim.World implements it; the concurrent
// runtime and the Write-All harness provide their own sinks.
type DoSink interface {
	RecordDo(pid int, job int64)
}

// nopSink discards events.
type nopSink struct{}

func (nopSink) RecordDo(int, int64) {}

// ProcOptions configures a single KKβ/IterStepKK process.
type ProcOptions struct {
	// ID is the process identifier p ∈ [1..m].
	ID int
	// M is the total number of processes.
	M int
	// Beta is the termination parameter β. The paper requires β ≥ m for
	// termination (Lemma 4.3); correctness holds for any β (Lemma 4.1).
	Beta int
	// Layout locates the instance's shared variables in Mem.
	Layout Layout
	// Mem is the shared memory.
	Mem shmem.Mem
	// Jobs is the initial FREE set, owned by the process from here on. Nil
	// means J = [1..Universe], plain KKβ's input; IterStepKK passes the
	// per-process input set of super-jobs.
	Jobs *denseset.Set
	// Universe is the largest job identifier that can appear (n). Used for
	// work-charging set operations at the paper's O(log n) rate and for
	// bounding POS row scans.
	Universe int
	// IterStep selects the §6 variant: a shared termination flag is
	// written when |FREE\TRY| < β and read before every do action.
	IterStep bool
	// ReturnFree makes the terminating process output FREE instead of
	// FREE\TRY — the WA_IterStepKK variant of §7.
	ReturnFree bool
	// Sink receives do events; nil discards them.
	Sink DoSink
	// DoFn, when non-nil, is invoked for each performed job (payload
	// execution in the concurrent runtime).
	DoFn func(job int64)
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
// variables STATUS, FREE, DONE, TRY, POS, NEXT and Q. Each Step performs
// one action (at most one shared-memory access).
type Proc struct {
	id       int
	m        int
	beta     int
	lay      Layout
	mem      shmem.Mem
	sink     DoSink
	doFn     func(job int64)
	doCost   uint64
	iterStep bool
	retFree  bool
	collide  *CollisionMatrix
	lgN      int
	noCache  bool

	phase     Phase
	termGath  bool // gather pass is the §6 terminating recomputation
	free      *denseset.Set
	done      *denseset.Set
	try       *denseset.Set
	pos       []int // pos[q], 1-based; pos[0] unused
	next      int64
	q         int
	work      uint64
	nDone     int    // count of do actions by this process
	nAnnounce int    // count of setNext actions by this process
	nShared   uint64 // shared-memory accesses
	nSetOps   uint64 // set operations charged at O(log n)

	tryCulprit int // process blamed for a pending collision on next

	// sets backs done, try and — unless ProcOptions.Jobs gives one — free,
	// so building a process (conc.Runtime does so each time its rounds
	// outgrow the register file) is one object plus the sets' bitmaps.
	sets [3]denseset.Set
}

var _ sim.Process = (*Proc)(nil)

// NewProc builds a process in its start state (Figure 1: STATUS=comp_next,
// FREE=Jobs, DONE=TRY=∅, POS(i)=1, Q=1).
func NewProc(o ProcOptions) *Proc {
	if o.Beta <= 0 {
		o.Beta = o.M
	}
	if o.DoCost == 0 {
		o.DoCost = 1
	}
	sink := o.Sink
	if sink == nil {
		sink = nopSink{}
	}
	p := &Proc{
		id:       o.ID,
		m:        o.M,
		beta:     o.Beta,
		lay:      o.Layout,
		mem:      o.Mem,
		sink:     sink,
		doFn:     o.DoFn,
		doCost:   o.DoCost,
		iterStep: o.IterStep,
		retFree:  o.ReturnFree,
		collide:  o.Collisions,
		noCache:  o.NoPosCache,
		lgN:      ceilLog2(o.Universe + 1),
		phase:    PhaseCompNext,
		free:     o.Jobs,
		pos:      make([]int, o.M+1),
		q:        1,
	}
	// All three sets are sized for the universe here, so no later step —
	// and no Reset to a universe the layout admits — allocates: DONE can
	// reach the full universe, and TRY holds at most m-1 announcements but
	// each is a job id of the universe.
	if p.free == nil {
		p.free = &p.sets[0]
		p.free.InsertRange(1, o.Universe)
	}
	p.done, p.try = &p.sets[1], &p.sets[2]
	p.done.Reserve(o.Universe)
	p.try.Reserve(o.Universe)
	for i := 1; i <= o.M; i++ {
		p.pos[i] = 1
	}
	return p
}

// ID implements sim.Process.
func (p *Proc) ID() int { return p.id }

// SetDoFn rebinds the per-job payload.
func (p *Proc) SetDoFn(fn func(job int64)) { p.doFn = fn }

// Reset returns the process to its Figure 1 start state over the dense job
// universe [1..universe], reviving it from end or stop. The storage of
// the FREE/DONE/TRY sets is reused, so a warm process restarts without
// allocating — the property the round-based runtime builds on. The caller
// owns re-zeroing the shared-memory region; universe must fit the layout
// row length fixed at construction.
func (p *Proc) Reset(universe int) {
	if universe < 1 || universe > p.lay.RowLen {
		panic(fmt.Sprintf("core: Reset universe %d outside [1..%d]", universe, p.lay.RowLen))
	}
	p.phase = PhaseCompNext
	p.termGath = false
	p.free.ResetRange(1, universe)
	p.done.Clear()
	p.try.Clear()
	for i := 1; i <= p.m; i++ {
		p.pos[i] = 1
	}
	p.next = 0
	p.q = 1
	p.work = 0
	p.nDone = 0
	p.nAnnounce = 0
	p.nShared = 0
	p.nSetOps = 0
	p.tryCulprit = 0
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

// Work implements sim.Worker: total basic operations in the paper's cost
// model (§2.2) — O(1) per shared access and constant-size local step,
// O(log n) per set operation.
func (p *Proc) Work() uint64 { return p.work }

// Phase exposes the current STATUS for adversaries and tests.
func (p *Proc) Phase() Phase { return p.phase }

// NextJob exposes NEXT_p (0 before the first compNext).
func (p *Proc) NextJob() int64 { return p.next }

// FreeLen returns |FREE_p|.
func (p *Proc) FreeLen() int { return p.free.Len() }

// DoneLen returns |DONE_p|.
func (p *Proc) DoneLen() int { return p.done.Len() }

// TryLen returns |TRY_p|.
func (p *Proc) TryLen() int { return p.try.Len() }

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

// DoneContains reports whether job v is in DONE_p.
func (p *Proc) DoneContains(v int) bool { return p.done.Contains(v) }

// Output returns the set the process returned on termination (IterStepKK's
// FREE\TRY, or FREE for the Write-All variant) as a fresh set the caller
// owns. Nil before termination.
func (p *Proc) Output() *denseset.Set {
	if p.phase != PhaseEnd {
		return nil
	}
	out := p.free.Clone()
	if !p.retFree {
		p.try.Ascend(func(v int) bool {
			out.Delete(v)
			return true
		})
	}
	return out
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
	p.try.Ascend(func(v int) bool {
		if p.free.Contains(v) {
			inFree++
		}
		return true
	})
	p.chargeSet(p.try.Len() + 1)
	if p.free.Len()-inFree < p.beta {
		if p.iterStep {
			p.phase = PhaseTermFlag
			return
		}
		p.terminate()
		return
	}
	f := p.free.Len()
	var idx int
	if f-(p.m-1) >= p.m {
		// TMP = (|FREE|-(m-1))/m ≥ 1: take the first element of the p-th
		// of m intervals: ⌊(p-1)·TMP⌋+1.
		idx = (p.id-1)*(f-p.m+1)/p.m + 1
	} else {
		idx = p.id
	}
	v, ok := p.free.SelectExcluding(p.try, idx)
	p.chargeSet(p.try.Len() + 1) // rank(FREE,TRY,·) costs O(|TRY|·log n)
	if !ok {
		// Unreachable for β ≥ m (|FREE\TRY| ≥ β ≥ idx; see §3). For β < m
		// the paper guarantees correctness but not termination; we choose
		// to terminate rather than fail.
		p.terminate()
		return
	}
	p.next = int64(v)
	p.q = 1
	p.try.Clear()
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
			if p.try.Insert(int(v)) {
				p.chargeSet(1)
			}
			if v == p.next && p.tryCulprit == 0 {
				p.tryCulprit = p.q // Definition 5.2(ii), gatherTry case
			}
		}
	} else {
		p.work++
	}
	if p.q+1 <= p.m {
		p.q++
		return
	}
	p.q = 1
	p.phase = PhaseGatherDone
	if p.noCache {
		// Ablation: forget row progress, re-scan every done row in full.
		for q := 1; q <= p.m; q++ {
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
			if v == p.next && p.tryCulprit == 0 && !p.try.Contains(int(v)) {
				p.tryCulprit = p.q // Definition 5.2(ii), gatherDone case
			}
			p.done.Insert(int(v))
			p.free.Delete(int(v))
			p.chargeSet(2)
			p.pos[p.q]++
			return // Q_p unchanged: keep draining this row next action.
		}
	} else {
		p.work++
	}
	p.q++
	if p.q > p.m {
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
	inTry := p.try.Contains(int(p.next))
	inDone := p.done.Contains(int(p.next))
	p.chargeSet(2)
	if !inTry && !inDone {
		if p.iterStep {
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
	if p.doFn != nil {
		p.doFn(p.next)
	}
	p.work += p.doCost
	p.nDone++
	p.phase = PhaseDoneWrite
}

// stepDoneWrite is action done_p: publish the performed job.
func (p *Proc) stepDoneWrite() {
	p.mem.Write(p.lay.DoneAddr(p.id, p.pos[p.id]), p.next)
	p.work++
	p.nShared++
	p.done.Insert(int(p.next))
	p.free.Delete(int(p.next))
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
	p.try.Clear()
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
