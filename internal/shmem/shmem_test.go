package shmem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestSimMemReadWrite(t *testing.T) {
	m := NewSim(4)
	if m.Size() != 4 {
		t.Fatalf("Size = %d, want 4", m.Size())
	}
	for i := 0; i < 4; i++ {
		if v := m.Read(i); v != 0 {
			t.Fatalf("initial Read(%d) = %d, want 0", i, v)
		}
	}
	m.Write(2, 42)
	if v := m.Read(2); v != 42 {
		t.Fatalf("Read(2) = %d, want 42", v)
	}
	if m.Reads() != 5 || m.Writes() != 1 {
		t.Fatalf("counters = %d reads, %d writes; want 5, 1", m.Reads(), m.Writes())
	}
	if m.Accesses() != 6 {
		t.Fatalf("Accesses = %d, want 6", m.Accesses())
	}
}

func TestSimMemTAS(t *testing.T) {
	m := NewSim(2)
	if got := m.TestAndSet(0); got != 0 {
		t.Fatalf("first TAS = %d, want 0", got)
	}
	if got := m.TestAndSet(0); got != 1 {
		t.Fatalf("second TAS = %d, want 1", got)
	}
	if v := m.Read(0); v != 1 {
		t.Fatalf("register after TAS = %d, want 1", v)
	}
	if v := m.Read(1); v != 0 {
		t.Fatalf("untouched register = %d, want 0", v)
	}
}

func TestSimMemSnapshotRestore(t *testing.T) {
	m := NewSim(3)
	m.Write(0, 1)
	m.Write(1, 2)
	snap := m.Snapshot()
	m.Write(0, 99)
	m.Write(2, 7)
	m.Restore(snap)
	want := []int64{1, 2, 0}
	for i, w := range want {
		if v := m.Read(i); v != w {
			t.Fatalf("after restore Read(%d) = %d, want %d", i, v, w)
		}
	}
	// Snapshot must be a copy, not an alias.
	snap[0] = 1234
	if v := m.Read(0); v == 1234 {
		t.Fatal("Snapshot aliases memory")
	}
}

// TestSimMemPagedMatchesFlat checks the paged SimMem against a flat
// []int64 over seeded random Read, Write, TestAndSet, Peek, Snapshot and
// Restore sequences, at sizes that end on, just past and just short of a
// page edge, with addresses drawn half the time from the page edges and
// the last register.
func TestSimMemPagedMatchesFlat(t *testing.T) {
	for _, size := range []int{1, 7, pageCells - 1, pageCells, pageCells + 1, 3*pageCells + 5} {
		rng := rand.New(rand.NewSource(int64(size)))
		m, flat := NewSim(size), make([]int64, size)
		var reads, writes uint64
		var snap, flatSnap []int64
		addr := func() int {
			if rng.Intn(2) == 0 {
				edges := []int{0, pageCells - 1, pageCells, pageCells + 1, 2 * pageCells, 3 * pageCells, size - 1}
				if a := edges[rng.Intn(len(edges))]; a < size {
					return a
				}
			}
			return rng.Intn(size)
		}
		for op := 0; op < 10_000; op++ {
			a := addr()
			switch k := rng.Intn(100); {
			case k < 30:
				reads++
				if got := m.Read(a); got != flat[a] {
					t.Fatalf("size %d op %d: Read(%d) = %d, want %d", size, op, a, got, flat[a])
				}
			case k < 60:
				v := int64(rng.Intn(3)) // zeros too: a zero write to an unmade page
				writes++
				m.Write(a, v)
				flat[a] = v
			case k < 70:
				reads++
				writes++
				if got := m.TestAndSet(a); got != flat[a] {
					t.Fatalf("size %d op %d: TestAndSet(%d) = %d, want %d", size, op, a, got, flat[a])
				}
				flat[a] = 1
			case k < 98:
				if got := m.Peek(a); got != flat[a] {
					t.Fatalf("size %d op %d: Peek(%d) = %d, want %d", size, op, a, got, flat[a])
				}
			case k == 98:
				snap, flatSnap = m.Snapshot(), slices.Clone(flat)
				if !slices.Equal(snap, flatSnap) {
					t.Fatalf("size %d op %d: Snapshot differs from the flat registers", size, op)
				}
			default:
				if snap != nil {
					m.Restore(snap)
					copy(flat, flatSnap)
				}
			}
		}
		if m.Size() != size || !slices.Equal(m.Snapshot(), flat) {
			t.Fatalf("size %d: registers differ from the flat ones at the end", size)
		}
		if m.Reads() != reads || m.Writes() != writes {
			t.Fatalf("size %d: counted %d reads, %d writes; want %d, %d", size, m.Reads(), m.Writes(), reads, writes)
		}
	}
}

// TestSimMemUntouchedPages: a read, a peek or a zero write of a page
// never written allocates nothing, and a restore of zeros leaves it unmade.
func TestSimMemUntouchedPages(t *testing.T) {
	m := NewSim(4*pageCells + 3)
	m.Write(pageCells+2, 9)
	allocs := testing.AllocsPerRun(100, func() {
		m.Read(3*pageCells + 7)
		m.Peek(4*pageCells + 2)
		m.Write(2*pageCells, 0)
	})
	if allocs != 0 {
		t.Fatalf("untouched pages cost %v allocations", allocs)
	}
	m.Restore(make([]int64, m.Size()))
	for i, pg := range m.pages {
		if (pg != nil) != (i == 1) {
			t.Fatalf("page %d made: %v; only page 1 was written", i, pg != nil)
		}
	}
}

// TestSimMemOutOfRange: an index at or past Size panics, as the flat
// registers' did, also inside the last page, made or not, and for a zero
// write or a restore of zeros that makes no page.
func TestSimMemOutOfRange(t *testing.T) {
	const size = pageCells + 3
	for _, made := range []bool{false, true} {
		m := NewSim(size)
		if made {
			m.Write(size-1, 1)
		}
		for name, op := range map[string]func(){
			"Read":       func() { m.Read(size) },
			"Peek":       func() { m.Peek(size + 1) },
			"Write 0":    func() { m.Write(size, 0) },
			"Write 1":    func() { m.Write(2*pageCells-1, 1) },
			"TestAndSet": func() { m.TestAndSet(size) },
			"Restore":    func() { m.Restore(make([]int64, size+1)) },
			"past pages": func() { m.Write(2*pageCells, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s past Size did not panic (last page made: %v)", name, made)
					}
				}()
				op()
			}()
		}
	}
}

func TestAtomicMemReadWrite(t *testing.T) {
	m := NewAtomic(2)
	m.Write(1, -5)
	if v := m.Read(1); v != -5 {
		t.Fatalf("Read = %d, want -5", v)
	}
	if m.Size() != 2 {
		t.Fatalf("Size = %d, want 2", m.Size())
	}
}

func TestAtomicMemTASExactlyOneWinner(t *testing.T) {
	const goroutines = 32
	m := NewAtomic(1)
	var (
		wg      sync.WaitGroup
		winners = make(chan int, goroutines)
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if m.TestAndSet(0) == 0 {
				winners <- id
			}
		}(g)
	}
	wg.Wait()
	close(winners)
	n := 0
	for range winners {
		n++
	}
	if n != 1 {
		t.Fatalf("%d TAS winners, want exactly 1", n)
	}
}

func TestAtomicMemConcurrentDistinctCells(t *testing.T) {
	const goroutines = 16
	m := NewAtomic(goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Write(id, int64(i))
				if v := m.Read(id); v != int64(i) {
					t.Errorf("goroutine %d read %d, want %d", id, v, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
