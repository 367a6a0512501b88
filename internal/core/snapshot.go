package core

import "encoding/binary"

// Clone returns a deep copy of the process state (sets, pointers,
// scalars). The copy shares the memory, sink and collision-matrix
// references. Used by the bounded model checker to branch executions.
func (p *Proc) Clone() *Proc {
	c := *p
	c.free = p.free.Clone()
	c.done = p.done.Clone()
	c.try = p.try.Clone()
	c.pos = make([]int, len(p.pos))
	copy(c.pos, p.pos)
	return &c
}

// RestoreFrom overwrites this process's state from a clone made with
// Clone. Memory, sink and collision references are left untouched.
func (p *Proc) RestoreFrom(c *Proc) {
	mem, sink, collide := p.mem, p.sink, p.collide
	*p = *c
	p.free = c.free.Clone()
	p.done = c.done.Clone()
	p.try = c.try.Clone()
	p.pos = make([]int, len(c.pos))
	copy(p.pos, c.pos)
	p.mem, p.sink, p.collide = mem, sink, collide
}

// AppendState serializes the behaviorally relevant process state for
// state-hashing in the model checker. Crashed processes collapse to a
// single marker byte: their internals can never influence the future.
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
	app32(p.free.Len())
	p.free.Ascend(func(v int) bool { app32(v); return true })
	app32(p.done.Len())
	p.done.Ascend(func(v int) bool { app32(v); return true })
	app32(p.try.Len())
	p.try.Ascend(func(v int) bool { app32(v); return true })
	return buf
}

// SetSink rebinds the do-event sink (used by harnesses that assemble
// processes manually).
func (p *Proc) SetSink(s DoSink) { p.sink = s }

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
