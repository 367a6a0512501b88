package core

import (
	"encoding/binary"

	"atmostonce/internal/sim"
)

// Clone returns a deep copy of the process state (sets, pointers,
// scalars). The copy shares the memory, sink and collision-matrix
// references. Used by the bounded model checker to branch executions.
func (p *Proc) Clone() *Proc {
	c := *p
	c.free = p.free.Clone()
	c.copyRows(p)
	return &c
}

// RestoreFrom overwrites this process's state from a clone made with
// Clone. Memory, sink and collision references are left untouched.
func (p *Proc) RestoreFrom(c *Proc) {
	mem, sink, collide := p.mem, p.sink, p.collide
	*p = *c
	p.free = c.free.Clone()
	p.copyRows(c)
	p.mem, p.sink, p.collide = mem, sink, collide
}

// copyRows gives p copies of c's POS and TRY, laid out as init lays them.
func (p *Proc) copyRows(c *Proc) {
	rows := make([]int, len(c.pos)+cap(c.try))
	p.pos = rows[:copy(rows, c.pos)]
	p.try = append(rows[len(c.pos):len(c.pos)], c.try...)
}

// AppendState serializes the behaviorally relevant process state for
// state-hashing in the model checker. Crashed processes collapse to a
// single marker byte: their internals can never influence the future.
// FREE is not keyed: it is J less the done-matrix cells below the POS
// pointers, which the memory and POS already key, as long as FREE started
// at J and POS caches every row (no NoPosCache), as in verify.ExploreKK.
func (p *Proc) AppendState(buf []byte) []byte {
	if p.phase == PhaseStop {
		return append(buf, 0xFF)
	}
	var tmp [8]byte
	app32 := func(v int) {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(v))
		buf = append(buf, tmp[:4]...)
	}
	buf = append(buf, byte(p.phase))
	if p.termGath {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	app32(int(p.next))
	app32(p.q)
	for _, v := range p.pos[1:] {
		app32(v)
	}
	app32(len(p.try))
	for _, v := range p.try {
		app32(v)
	}
	return buf
}

// SetSink rebinds the do-event sink (the model checker reports to itself).
func (p *Proc) SetSink(s sim.DoSink) { p.sink = s }

// SaveState implements the model checker's Snapshottable interface.
func (p *Proc) SaveState() any { return p.Clone() }

// LoadState implements the model checker's Snapshottable interface.
// Snapshots from any other process are rejected by doing nothing; the
// checker only ever restores a process's own snapshots.
func (p *Proc) LoadState(snapshot any) {
	if c, ok := snapshot.(*Proc); ok {
		p.RestoreFrom(c)
	}
}
