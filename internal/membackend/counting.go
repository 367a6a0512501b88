package membackend

import (
	"fmt"
	"sync/atomic"
)

// CountingMem wraps any backend with read/write counters, giving the
// shared-access instrumentation of shmem.SimMem outside the simulator:
// unlike SimMem it is safe for concurrent use (counters are atomic) and
// composes with durable backends ("counting:mmap:PATH"). The loopable
// capabilities (AckedWriter, RangeReader) pass through to the
// inner backend when it has them and fall back to the equivalent cell
// loop when it does not, so wrapping never hides them — and every
// access through a capability is counted with the same weights a
// cell-at-a-time caller would pay. Swapper has no sound fallback (a
// read-then-write emulation would not be atomic), so CountingMem
// itself does not implement it; the registry's "counting:" opener
// returns a CAS-capable wrapper exactly when the inner backend is a
// Swapper, keeping type-assertion capability discovery honest.
type CountingMem struct {
	inner  Backend
	reads  atomic.Uint64
	writes atomic.Uint64
	syncs  atomic.Uint64
}

var (
	_ Backend            = (*CountingMem)(nil)
	_ Reopener           = (*CountingMem)(nil)
	_ AckedWriter        = (*CountingMem)(nil)
	_ JournalWriter      = (*CountingMem)(nil)
	_ BatchAckedWriter   = (*CountingMem)(nil)
	_ BatchJournalWriter = (*CountingMem)(nil)
	_ RangeReader        = (*CountingMem)(nil)
)

// swappingCounting is a CountingMem over a Swapper-capable inner
// backend; only it advertises CompareAndSwap.
type swappingCounting struct {
	*CountingMem
	sw Swapper
}

var _ Swapper = (*swappingCounting)(nil)

// CompareAndSwap implements Swapper, counting one read and one write
// (the access pattern a CAS subsumes).
func (s *swappingCounting) CompareAndSwap(addr int, old, new int64) bool {
	s.reads.Add(1)
	s.writes.Add(1)
	return s.sw.CompareAndSwap(addr, old, new)
}

// AsCounting unwraps the counting layer of a backend built by the
// "counting:" spec (either counting flavor), or nil if b is not one.
func AsCounting(b Backend) *CountingMem {
	switch v := b.(type) {
	case *CountingMem:
		return v
	case *swappingCounting:
		return v.CountingMem
	}
	return nil
}

// NewCounting wraps inner with access counting.
func NewCounting(inner Backend) *CountingMem {
	return &CountingMem{inner: inner}
}

// Read implements shmem.Mem.
func (c *CountingMem) Read(addr int) int64 {
	c.reads.Add(1)
	return c.inner.Read(addr)
}

// Write implements shmem.Mem.
func (c *CountingMem) Write(addr int, v int64) {
	c.writes.Add(1)
	c.inner.Write(addr, v)
}

// Size implements shmem.Mem.
func (c *CountingMem) Size() int { return c.inner.Size() }

// WriteAcked implements AckedWriter, counting one write. An in-process
// inner backend's plain Write is already acked by the time it returns.
func (c *CountingMem) WriteAcked(addr int, v int64) error {
	c.writes.Add(1)
	if aw, ok := c.inner.(AckedWriter); ok {
		return aw.WriteAcked(addr, v)
	}
	c.inner.Write(addr, v)
	return nil
}

// JournalWrite implements JournalWriter, counting one write. Falls back
// through WriteAcked to plain Write when the inner backend lacks the
// capability, mirroring how the dispatcher itself degrades.
func (c *CountingMem) JournalWrite(addr int, id uint64) error {
	c.writes.Add(1)
	switch v := c.inner.(type) {
	case JournalWriter:
		return v.JournalWrite(addr, id)
	case AckedWriter:
		return v.WriteAcked(addr, int64(id))
	}
	c.inner.Write(addr, int64(id))
	return nil
}

// WriteAckedBatch implements BatchAckedWriter, counting len(vals)
// writes. When the inner backend lacks the batch capability it degrades
// to per-cell acked writes — still correct (each cell is ordered), just
// without the single-ack amortization, and with the same
// prefix-on-crash window the contract allows for in-process backends.
func (c *CountingMem) WriteAckedBatch(addr int, vals []int64) error {
	c.writes.Add(uint64(len(vals)))
	if bw, ok := c.inner.(BatchAckedWriter); ok {
		return bw.WriteAckedBatch(addr, vals)
	}
	if aw, ok := c.inner.(AckedWriter); ok {
		for i, v := range vals {
			if err := aw.WriteAcked(addr+i, v); err != nil {
				return err
			}
		}
		return nil
	}
	for i, v := range vals {
		c.inner.Write(addr+i, v)
	}
	return nil
}

// JournalWriteBatch implements BatchJournalWriter, counting len(ids)
// writes. Falls back through JournalWrite so the per-job server-side
// trace witnessing survives wrapping, then through the acked/plain
// ladder like the other capabilities.
func (c *CountingMem) JournalWriteBatch(addr int, ids []uint64) error {
	c.writes.Add(uint64(len(ids)))
	switch v := c.inner.(type) {
	case BatchJournalWriter:
		return v.JournalWriteBatch(addr, ids)
	case JournalWriter:
		for i, id := range ids {
			if err := v.JournalWrite(addr+i, id); err != nil {
				return err
			}
		}
		return nil
	case AckedWriter:
		for i, id := range ids {
			if err := v.WriteAcked(addr+i, int64(id)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, id := range ids {
		c.inner.Write(addr+i, int64(id))
	}
	return nil
}

// ReadRange implements RangeReader, counting len(dst) reads.
func (c *CountingMem) ReadRange(addr int, dst []int64) error {
	c.reads.Add(uint64(len(dst)))
	if rr, ok := c.inner.(RangeReader); ok {
		return rr.ReadRange(addr, dst)
	}
	for i := range dst {
		dst[i] = c.inner.Read(addr + i)
	}
	return nil
}

// Sync implements Backend, counting the call (Syncs) and passing it
// through to the inner backend.
func (c *CountingMem) Sync() error {
	c.syncs.Add(1)
	return c.inner.Sync()
}

// Close implements Backend.
func (c *CountingMem) Close() error { return c.inner.Close() }

// Reopened implements Reopener by delegating to the inner backend.
func (c *CountingMem) Reopened() bool {
	if r, ok := c.inner.(Reopener); ok {
		return r.Reopened()
	}
	return false
}

// Inner returns the wrapped backend.
func (c *CountingMem) Inner() Backend { return c.inner }

// Reads returns the number of Read calls observed.
func (c *CountingMem) Reads() uint64 { return c.reads.Load() }

// Writes returns the number of Write calls observed.
func (c *CountingMem) Writes() uint64 { return c.writes.Load() }

// Syncs returns the number of Sync calls observed.
func (c *CountingMem) Syncs() uint64 { return c.syncs.Load() }

// Accesses returns Reads()+Writes().
func (c *CountingMem) Accesses() uint64 { return c.reads.Load() + c.writes.Load() }

func init() {
	Register("counting", func(arg string, size int) (Backend, error) {
		if arg == "" {
			return nil, fmt.Errorf("membackend: counting backend needs an inner spec, e.g. %q", "counting:atomic")
		}
		inner, err := Open(arg, size)
		if err != nil {
			return nil, err
		}
		c := NewCounting(inner)
		if sw, ok := inner.(Swapper); ok {
			return &swappingCounting{CountingMem: c, sw: sw}, nil
		}
		return c, nil
	})
}
