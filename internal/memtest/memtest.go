// Package memtest is the conformance suite every register backend must
// pass: one shared battery of subtests exercised against SimMem,
// AtomicMem, MmapMem, CountingMem and the networked NetMem (against a
// live server), so a new shmem.Mem implementation inherits the
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
// sequential) and, for durable backends, that a reopened instance sees
// exactly the cells the previous instance wrote.
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
	t.Run("Capabilities", func(t *testing.T) { testCapabilities(t, f) })
	t.Run("BatchWrite", func(t *testing.T) { testBatchWrite(t, f) })
}

// Local structural mirrors of membackend's optional capability
// interfaces (AckedWriter, RangeReader, Swapper). They are
// redeclared here instead of imported because membackend's own tests
// run this suite from inside package membackend — importing it back
// would be an import cycle — and Go interface satisfaction is
// structural, so the assertions are equivalent.
type (
	ackedWriter interface {
		WriteAcked(addr int, v int64) error
	}
	rangeReader interface {
		ReadRange(addr int, dst []int64) error
	}
	swapper interface {
		CompareAndSwap(addr int, old, new int64) bool
	}
	batchAckedWriter interface {
		WriteAckedBatch(addr int, vals []int64) error
	}
	batchJournalWriter interface {
		JournalWriteBatch(addr int, ids []uint64) error
	}
)

// testCapabilities checks whichever of the optional membackend
// capability interfaces the backend implements against the plain
// Read/Write semantics: WriteAcked is a write, ReadRange sees exactly
// what per-cell reads see, and CompareAndSwap succeeds precisely on a
// matching old value. Backends
// with none of the capabilities pass vacuously.
func testCapabilities(t *testing.T, f Factory) {
	const size = 64
	m := f.New(t, size)
	any := false
	if aw, ok := m.(ackedWriter); ok {
		any = true
		if err := aw.WriteAcked(7, 1234); err != nil {
			t.Fatalf("WriteAcked: %v", err)
		}
		if got := m.Read(7); got != 1234 {
			t.Fatalf("cell 7 reads %d after WriteAcked, want 1234", got)
		}
	}
	for a := 0; a < size; a++ {
		m.Write(a, int64(a)*3+1)
	}
	if rr, ok := m.(rangeReader); ok {
		any = true
		dst := make([]int64, 17)
		if err := rr.ReadRange(5, dst); err != nil {
			t.Fatalf("ReadRange: %v", err)
		}
		for i, v := range dst {
			if want := m.Read(5 + i); v != want {
				t.Fatalf("ReadRange[%d] = %d, per-cell read says %d", i, v, want)
			}
		}
	}
	if sw, ok := m.(swapper); ok {
		any = true
		m.Write(40, 5)
		if sw.CompareAndSwap(40, 6, 7) {
			t.Fatal("CAS with stale old succeeded")
		}
		if got := m.Read(40); got != 5 {
			t.Fatalf("failed CAS mutated the cell to %d", got)
		}
		if !sw.CompareAndSwap(40, 5, 7) {
			t.Fatal("CAS with matching old failed")
		}
		if got := m.Read(40); got != 7 {
			t.Fatalf("cell = %d after CAS, want 7", got)
		}
	}
	if !any {
		t.Skip("backend implements no optional capabilities")
	}
}

// testBatchWrite checks the vectored-write capabilities
// (WriteAckedBatch / JournalWriteBatch) against plain per-cell reads: a
// batch of k values lands in exactly the k contiguous cells starting at
// addr, neighbours untouched, single-element and larger batches alike.
// The stronger contract — a *fenced* batch write rejecting atomically
// with no prefix applied — involves two competing writers and lives in
// the net backend's own tests (it is the only backend with admission
// control); here every accepted batch must simply be fully applied.
// Backends without the capabilities pass vacuously.
func testBatchWrite(t *testing.T, f Factory) {
	const size = 96
	m := f.New(t, size)
	any := false
	for a := 0; a < size; a++ {
		m.Write(a, int64(a)+100)
	}
	if bw, ok := m.(batchAckedWriter); ok {
		any = true
		for _, n := range []int{1, 2, 7, 33} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(1000*n + i)
			}
			const addr = 20
			if err := bw.WriteAckedBatch(addr, vals); err != nil {
				t.Fatalf("WriteAckedBatch(%d cells): %v", n, err)
			}
			for a := 0; a < size; a++ {
				want := int64(a) + 100
				if a >= addr && a < addr+n {
					want = vals[a-addr]
				}
				if got := m.Read(a); got != want {
					t.Fatalf("cell %d = %d after WriteAckedBatch(%d,%d cells), want %d", a, got, addr, n, want)
				}
			}
			for a := 0; a < size; a++ {
				m.Write(a, int64(a)+100)
			}
		}
	}
	if jw, ok := m.(batchJournalWriter); ok {
		any = true
		ids := []uint64{901, 902, 903, 904, 905}
		const addr = 50
		if err := jw.JournalWriteBatch(addr, ids); err != nil {
			t.Fatalf("JournalWriteBatch: %v", err)
		}
		for i, id := range ids {
			if got := m.Read(addr + i); got != int64(id) {
				t.Fatalf("journal cell %d = %d, want %d", addr+i, got, id)
			}
		}
		if got := m.Read(addr + len(ids)); got != int64(addr+len(ids))+100 {
			t.Fatalf("cell after journal batch clobbered: %d", got)
		}
	}
	if !any {
		t.Skip("backend implements no batch-write capabilities")
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
