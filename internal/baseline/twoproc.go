package baseline

import (
	"fmt"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// TwoProc is the two-process at-most-once algorithm in the style of [26]:
// the left process performs jobs lo, lo+1, ... and the right process
// performs hi, hi−1, ...; each announces its target job in its own
// register before performing it and checks the other side's announcement
// after announcing. The announce-then-check order makes overlap
// impossible (the same argument as the paper's Lemma 4.1 Case 2), and at
// most one job at the meeting point is sacrificed: effectiveness n−1,
// which is optimal for two processes (Theorem 2.1 with f=1).
//
// Register layout: cell 0 = left announcement, cell 1 = right
// announcement (0 = no announcement yet).
type TwoProc struct {
	sim.Base
	left   bool // direction of travel
	cur    int  // job about to be announced/performed
	lo, hi int  // inclusive range (fixed)
	mem    shmem.Mem
	base   int // register base address
	phase  twoPhase
	nDone  int
}

type twoPhase int

const (
	twoAnnounce twoPhase = iota + 1 // write own register
	twoRead                         // read the peer register
	twoDo                           // perform the job
)

var _ sim.Process = (*TwoProc)(nil)

// NewTwoProcPair builds the two processes sharing jobs [lo..hi] over the
// two registers at mem[base] and mem[base+1]. leftID and rightID are the
// event/process ids. Their sink is unset: bind one with SetSink, as
// verify.ExploreProcs does.
func NewTwoProcPair(mem shmem.Mem, base, lo, hi, leftID, rightID int) (*TwoProc, *TwoProc) {
	return newTwoProc(mem, base, lo, hi, leftID, true, nil), newTwoProc(mem, base, lo, hi, rightID, false, nil)
}

// newTwoProc builds the left or the right process of a pair.
func newTwoProc(mem shmem.Mem, base, lo, hi, id int, left bool, sink sim.DoSink) *TwoProc {
	cur := hi
	if left {
		cur = lo
	}
	return &TwoProc{Base: sim.NewBase(id, sink), left: left, cur: cur, lo: lo, hi: hi,
		mem: mem, base: base, phase: twoAnnounce}
}

// NewTwoProcSystem builds a complete 2-process world over jobs [1..n].
func NewTwoProcSystem(n, f int) (*sim.World, error) {
	if n < 2 {
		return nil, fmt.Errorf("baseline: two-process algorithm needs n ≥ 2, got %d", n)
	}
	mem := shmem.NewSim(2)
	return sim.Assemble(2, n, mem, f, func(id int, sink sim.DoSink) sim.Process {
		return newTwoProc(mem, 0, 1, n, id, id == 1, sink)
	}), nil
}

// Performed returns the number of jobs this process completed.
func (p *TwoProc) Performed() int { return p.nDone }

func (p *TwoProc) ownAddr() int {
	if p.left {
		return p.base
	}
	return p.base + 1
}

func (p *TwoProc) peerAddr() int {
	if p.left {
		return p.base + 1
	}
	return p.base
}

func (p *TwoProc) exhausted() bool {
	if p.left {
		return p.cur > p.hi
	}
	return p.cur < p.lo
}

// Step implements sim.Process: announce → read peer → do, one shared
// access per step.
func (p *TwoProc) Step() {
	switch p.phase {
	case twoAnnounce:
		if p.exhausted() {
			p.End()
			return
		}
		p.mem.Write(p.ownAddr(), int64(p.cur))
		p.Charge()
		p.phase = twoRead
	case twoRead:
		peer := p.mem.Read(p.peerAddr())
		p.Charge()
		if peer != 0 && p.passed(int(peer)) {
			// The peer announced this job or one we already passed: the
			// ranges have met; stop without performing cur.
			p.End()
			return
		}
		p.phase = twoDo
	case twoDo:
		p.Do(int64(p.cur))
		p.nDone++
		if p.left {
			p.cur++
		} else {
			p.cur--
		}
		p.phase = twoAnnounce
	}
}

// passed reports whether the peer's announced job is at or beyond our
// current position (the fronts met).
func (p *TwoProc) passed(peer int) bool {
	if p.left {
		return peer <= p.cur
	}
	return peer >= p.cur
}

// SaveState implements verify.Snapshottable.
func (p *TwoProc) SaveState() any { return *p }

// LoadState implements verify.Snapshottable.
func (p *TwoProc) LoadState(snapshot any) {
	if s, ok := snapshot.(TwoProc); ok {
		*p = s
	}
}

// AppendState implements verify.Snapshottable.
func (p *TwoProc) AppendState(buf []byte) []byte {
	if p.Status() == sim.Crashed {
		return append(buf, 0xFF)
	}
	return append(buf, byte(p.Status()), byte(p.phase),
		byte(p.cur), byte(p.cur>>8), byte(p.cur>>16))
}
