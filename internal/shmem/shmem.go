// Package shmem models the shared memory of the paper's asynchronous
// shared-memory system (§2.1): a collection of atomic read/write cells,
// each O(log n) bits wide. The Mem interface is the seam the whole
// stack is built on — algorithms (internal/core), the concurrent
// runtime (internal/conc) and the streaming dispatcher
// (internal/dispatch) only ever see Read/Write/Size.
//
// This package provides the two foundational implementations:
//
//   - SimMem: plain cells for use under the single-stepped simulation
//     engine (internal/sim), where atomicity holds by construction because
//     the scheduler serializes actions. SimMem counts every access, which
//     feeds the work-complexity experiments (Theorem 5.6).
//   - AtomicMem: cells backed by sync/atomic for the true concurrent runtime
//     (internal/conc), where each algorithm action performs at most one
//     shared access and therefore remains atomic on real hardware.
//
// Further backends live in the registry package internal/membackend and
// are selected by spec string (membackend.Open): the in-process atomic
// backend, the durable memory-mapped register file ("mmap:PATH", the
// substrate of dispatcher crash recovery), an instrumented counting
// wrapper, and the networked register service ("net:HOST:PORT/NS",
// internal/netmem — registers served by an amo-regd process with
// single-writer lease arbitration). Every implementation must pass the
// shared conformance suite internal/memtest; the file layout and
// recovery protocol are specified in DESIGN.md §7, the wire protocol
// and fencing in §8.
//
// A separate TAS extension models test-and-set registers; the paper's
// algorithms never use it (they are read/write only), but the baseline
// comparison algorithms from §1's remark do.
package shmem

import "sync/atomic"

// Mem is an array of atomic read/write registers addressed by index.
type Mem interface {
	// Read returns the value of the register at addr.
	Read(addr int) int64
	// Write stores v into the register at addr.
	Write(addr int, v int64)
	// Size returns the number of registers.
	Size() int
}

// TAS is the optional test-and-set capability. Read/write algorithms in
// this repository never depend on it; it exists to implement the stronger
// baseline the paper mentions in §1 ("one can associate a test-and-set bit
// with each job").
type TAS interface {
	// TestAndSet atomically sets the register at addr to 1 and returns its
	// previous value.
	TestAndSet(addr int) int64
}

// SimMem is a sequential Mem with access counting. It must only be used
// under a scheduler that serializes actions (internal/sim does).
type SimMem struct {
	cells  []int64
	reads  uint64
	writes uint64
}

var (
	_ Mem = (*SimMem)(nil)
	_ TAS = (*SimMem)(nil)
)

// NewSim returns a SimMem with size zero-initialized registers.
func NewSim(size int) *SimMem {
	return &SimMem{cells: make([]int64, size)}
}

// Read implements Mem.
func (m *SimMem) Read(addr int) int64 {
	m.reads++
	return m.cells[addr]
}

// Write implements Mem.
func (m *SimMem) Write(addr int, v int64) {
	m.writes++
	m.cells[addr] = v
}

// TestAndSet implements TAS.
func (m *SimMem) TestAndSet(addr int) int64 {
	m.reads++
	m.writes++
	old := m.cells[addr]
	m.cells[addr] = 1
	return old
}

// Size implements Mem.
func (m *SimMem) Size() int { return len(m.cells) }

// Peek reads a register without counting the access. For observers and
// invariant checkers, never for algorithm code.
func (m *SimMem) Peek(addr int) int64 { return m.cells[addr] }

// Reads returns the total number of Read operations performed.
func (m *SimMem) Reads() uint64 { return m.reads }

// Writes returns the total number of Write operations performed.
func (m *SimMem) Writes() uint64 { return m.writes }

// Accesses returns Reads()+Writes().
func (m *SimMem) Accesses() uint64 { return m.reads + m.writes }

// Snapshot copies the register contents; used by the bounded model checker
// to hash global states.
func (m *SimMem) Snapshot() []int64 {
	out := make([]int64, len(m.cells))
	copy(out, m.cells)
	return out
}

// Restore overwrites the register contents from a snapshot taken on a
// memory of the same size. Access counters are unaffected.
func (m *SimMem) Restore(snap []int64) {
	copy(m.cells, snap)
}

// AtomicMem is a Mem backed by sync/atomic operations, safe for concurrent
// use by multiple goroutines.
type AtomicMem struct {
	cells []atomic.Int64
}

var (
	_ Mem = (*AtomicMem)(nil)
	_ TAS = (*AtomicMem)(nil)
)

// NewAtomic returns an AtomicMem with size zero-initialized registers.
func NewAtomic(size int) *AtomicMem {
	return &AtomicMem{cells: make([]atomic.Int64, size)}
}

// Read implements Mem.
func (m *AtomicMem) Read(addr int) int64 { return m.cells[addr].Load() }

// Write implements Mem.
func (m *AtomicMem) Write(addr int, v int64) { m.cells[addr].Store(v) }

// TestAndSet implements TAS.
func (m *AtomicMem) TestAndSet(addr int) int64 {
	if m.cells[addr].CompareAndSwap(0, 1) {
		return 0
	}
	return 1
}

// Size implements Mem.
func (m *AtomicMem) Size() int { return len(m.cells) }
