package membackend

import (
	"fmt"
	"sync/atomic"
)

// CountingMem wraps any backend with read/write counters, giving the
// shared-access instrumentation of shmem.SimMem outside the simulator:
// unlike SimMem it is safe for concurrent use (counters are atomic) and
// composes with durable backends ("counting:mmap:PATH"). WriteAcked and
// ReadRange pass straight through to the inner backend and are counted
// with the weights a cell-at-a-time caller would pay: k cells written
// are k writes, k cells read are k reads.
type CountingMem struct {
	inner  Backend
	reads  atomic.Uint64
	writes atomic.Uint64
	syncs  atomic.Uint64
}

var _ Backend = (*CountingMem)(nil)

// AsCounting unwraps the counting layer of a backend built by the
// "counting:" spec, or nil if b is not one.
func AsCounting(b Backend) *CountingMem {
	c, _ := b.(*CountingMem)
	return c
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

// WriteAcked implements Backend, counting len(vals) writes.
func (c *CountingMem) WriteAcked(addr int, vals []int64) error {
	c.writes.Add(uint64(len(vals)))
	return c.inner.WriteAcked(addr, vals)
}

// ReadRange implements Backend, counting len(dst) reads.
func (c *CountingMem) ReadRange(addr int, dst []int64) error {
	c.reads.Add(uint64(len(dst)))
	return c.inner.ReadRange(addr, dst)
}

// Sync implements Backend, counting the call (Syncs) and passing it
// through to the inner backend.
func (c *CountingMem) Sync() error {
	c.syncs.Add(1)
	return c.inner.Sync()
}

// Close implements Backend.
func (c *CountingMem) Close() error { return c.inner.Close() }

// Reopened implements Backend by delegating to the inner backend.
func (c *CountingMem) Reopened() bool { return c.inner.Reopened() }

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
		return NewCounting(inner), nil
	})
}
