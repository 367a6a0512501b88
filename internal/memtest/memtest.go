// Package memtest is the conformance suite every register backend must
// pass: one shared battery of subtests exercised against SimMem,
// AtomicMem, MmapMem, Lossy and the networked NetMem (against a live
// server), so a new shmem.Mem implementation inherits the
// contract checks instead of re-inventing them. Run it from the
// backend's own test file:
//
//	memtest.RunMemSuite(t, memtest.Factory{
//		New: func(t *testing.T, size int) shmem.Mem { ... },
//	})
//
// The battery checks zero initialization, Size, read-your-writes over
// the whole address range, full-cell atomicity under concurrent access
// (run with -race; skipped for backends that declare themselves
// sequential), for durable backends that a reopened instance sees
// exactly the cells the previous instance wrote, and for every
// membackend.Backend that WriteAcked and ReadRange agree with per-cell
// writes and reads. Lossy (lossy.go) is the one store the tests of the
// other packages count, tear and crash.
package memtest

import (
	"sync"
	"testing"

	"atmostonce/internal/shmem"
)

// Factory tells the suite how to build instances of the backend under
// test. Cleanup of an instance (closing files, etc.) is the factory's
// job — register it on t.
type Factory struct {
	// New returns a fresh backend with size zeroed cells.
	New func(t *testing.T, size int) shmem.Mem
	// Reopen, when non-nil, declares the backend durable: it must
	// return a new instance backed by the same storage as the instance
	// most recently created by New (which the suite has already
	// released via Release, if that is set).
	Reopen func(t *testing.T, size int) shmem.Mem
	// Release, when non-nil, is called to quiesce an instance before
	// Reopen (e.g. Close the mapping). Volatile backends leave it nil.
	Release func(t *testing.T, m shmem.Mem)
	// Sequential marks backends that are not safe for concurrent use
	// (SimMem); the suite then skips the concurrency subtest.
	Sequential bool
}

// RunMemSuite runs the conformance battery against the factory's
// backend.
func RunMemSuite(t *testing.T, f Factory) {
	t.Run("ZeroInit", func(t *testing.T) { testZeroInit(t, f) })
	t.Run("Size", func(t *testing.T) { testSize(t, f) })
	t.Run("ReadWrite", func(t *testing.T) { testReadWrite(t, f) })
	t.Run("Concurrent", func(t *testing.T) {
		if f.Sequential {
			t.Skip("backend is sequential by contract")
		}
		testConcurrent(t, f)
	})
	t.Run("Reopen", func(t *testing.T) {
		if f.Reopen == nil {
			t.Skip("backend is volatile")
		}
		testReopen(t, f)
	})
	// The acked write and the range read belong to membackend.Backend,
	// not to shmem.Mem: a plain Mem (SimMem, AtomicMem) has neither and
	// skips the two subtests; anything with a backend's lifecycle must
	// have both. Capabilities is the scalar case, BatchWrite the batches.
	switch m := f.New(t, 1).(type) {
	case ackedRanger:
		t.Run("Capabilities", func(t *testing.T) { testAckedAndRange(t, f, 1) })
		t.Run("BatchWrite", func(t *testing.T) { testAckedAndRange(t, f, 2, 7, 33) })
	case interface{ Close() error }:
		t.Fatalf("%T has a backend lifecycle but not WriteAcked and ReadRange", m)
	}
}

// ackedRanger is a structural mirror of the two membackend.Backend
// methods the suite checks beyond shmem.Mem. It is redeclared here
// instead of imported because membackend's own tests run this suite
// from inside package membackend — importing it back would be an import
// cycle — and Go interface satisfaction is structural, so the assertion
// is equivalent.
type ackedRanger interface {
	WriteAcked(addr int, vals []int64) error
	ReadRange(addr int, dst []int64) error
}

// testAckedAndRange checks WriteAcked and ReadRange against plain
// per-cell reads: a batch of n values lands in exactly the n contiguous
// cells starting at addr, neighbours untouched, and ReadRange over the
// whole file sees exactly what per-cell reads see. The stronger contract
// — a *fenced* write rejecting atomically with no cell applied —
// involves two competing writers and lives in the net backend's own
// tests (it is the only backend with admission control); here every
// accepted batch must simply be fully applied.
func testAckedAndRange(t *testing.T, f Factory, batches ...int) {
	const size, addr = 96, 20
	m := f.New(t, size)
	b := m.(ackedRanger)
	for _, n := range batches {
		for a := 0; a < size; a++ {
			m.Write(a, int64(a)+100)
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(1000*n + i)
		}
		if err := b.WriteAcked(addr, vals); err != nil {
			t.Fatalf("WriteAcked(%d cells): %v", n, err)
		}
		got := make([]int64, size)
		if err := b.ReadRange(0, got); err != nil {
			t.Fatalf("ReadRange: %v", err)
		}
		for a := 0; a < size; a++ {
			want := int64(a) + 100
			if a >= addr && a < addr+n {
				want = vals[a-addr]
			}
			if v := m.Read(a); v != want {
				t.Fatalf("cell %d = %d after WriteAcked(%d, %d cells), want %d", a, v, addr, n, want)
			}
			if got[a] != want {
				t.Fatalf("ReadRange[%d] = %d, per-cell read says %d", a, got[a], want)
			}
		}
	}
}

func testZeroInit(t *testing.T, f Factory) {
	const size = 257
	m := f.New(t, size)
	for a := 0; a < size; a++ {
		if v := m.Read(a); v != 0 {
			t.Fatalf("fresh cell %d holds %d, want 0", a, v)
		}
	}
}

func testSize(t *testing.T, f Factory) {
	for _, size := range []int{1, 7, 64, 1023} {
		if got := f.New(t, size).Size(); got != size {
			t.Fatalf("Size() = %d, want %d", got, size)
		}
	}
}

func testReadWrite(t *testing.T, f Factory) {
	const size = 513
	m := f.New(t, size)
	pattern := func(a int) int64 { return int64(a)*0x9e3779b9 + 1 }
	for a := 0; a < size; a++ {
		m.Write(a, pattern(a))
	}
	for a := 0; a < size; a++ {
		if got := m.Read(a); got != pattern(a) {
			t.Fatalf("cell %d reads %d after writing %d", a, got, pattern(a))
		}
	}
	// Overwrites land, and neighbours are untouched.
	m.Write(size/2, -42)
	if got := m.Read(size / 2); got != -42 {
		t.Fatalf("overwritten cell reads %d, want -42", got)
	}
	if got := m.Read(size/2 + 1); got != pattern(size/2+1) {
		t.Fatalf("neighbour cell clobbered: %d", got)
	}
}

// testConcurrent hammers a few cells from many goroutines. Every value
// ever written encodes its writer and sequence number, so any torn
// (non-atomic) write or out-of-thin-air read surfaces as a value nobody
// wrote; the race detector additionally flags unsynchronized access.
func testConcurrent(t *testing.T, f Factory) {
	const (
		size    = 8
		writers = 8
		rounds  = 2000
	)
	m := f.New(t, size)
	valid := func(v int64) bool {
		if v == 0 {
			return true
		}
		g := v >> 32
		s := v & 0xffffffff
		return g >= 1 && g <= writers && s >= 1 && s <= rounds
	}
	var wg sync.WaitGroup
	bad := make(chan int64, writers)
	for g := 1; g <= writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 1; s <= rounds; s++ {
				a := (g + s) % size
				m.Write(a, int64(g)<<32|int64(s))
				if v := m.Read((g + s + 3) % size); !valid(v) {
					select {
					case bad <- v:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(bad)
	if v, ok := <-bad; ok {
		t.Fatalf("read torn or out-of-thin-air value %#x", v)
	}
	for a := 0; a < size; a++ {
		if v := m.Read(a); !valid(v) {
			t.Fatalf("cell %d settled on torn value %#x", a, v)
		}
	}
}

func testReopen(t *testing.T, f Factory) {
	const size = 129
	m := f.New(t, size)
	pattern := func(a int) int64 { return int64(a*a + 1) }
	for a := 0; a < size; a++ {
		m.Write(a, pattern(a))
	}
	if f.Release != nil {
		f.Release(t, m)
	}
	r := f.Reopen(t, size)
	if got := r.Size(); got != size {
		t.Fatalf("reopened Size() = %d, want %d", got, size)
	}
	for a := 0; a < size; a++ {
		if got := r.Read(a); got != pattern(a) {
			t.Fatalf("reopened cell %d reads %d, want %d", a, got, pattern(a))
		}
	}
}
