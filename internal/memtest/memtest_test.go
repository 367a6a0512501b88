package memtest

import (
	"testing"

	"atmostonce/internal/shmem"
)

// The two shmem-native implementations pass the shared battery; the
// backend registry's implementations run it from internal/membackend.

func TestSimMemSuite(t *testing.T) {
	RunMemSuite(t, Factory{
		New:        func(t *testing.T, size int) shmem.Mem { return shmem.NewSim(size) },
		Sequential: true, // SimMem is only atomic under a serializing scheduler
	})
}

func TestAtomicMemSuite(t *testing.T) {
	RunMemSuite(t, Factory{
		New: func(t *testing.T, size int) shmem.Mem { return shmem.NewAtomic(size) },
	})
}

// The lossy store is a register file like any other until it crashes;
// what a crash keeps is checked where the loss matters (internal/jobd,
// internal/dispatch).
func TestLossySuite(t *testing.T) {
	var last *Lossy
	RunMemSuite(t, Factory{
		New: func(t *testing.T, size int) shmem.Mem { last = NewLossy(size); return last },
		Release: func(t *testing.T, m shmem.Mem) {
			if err := m.(*Lossy).Close(); err != nil {
				t.Fatal(err)
			}
		},
		Reopen: func(t *testing.T, size int) shmem.Mem { last.Crash(); return last },
	})
}

// TestLossyCrash: plain writes die with the cache, acked cells survive,
// and of a torn acked write exactly the kept cells do.
func TestLossyCrash(t *testing.T) {
	l := NewLossy(8)
	l.Write(0, 1)
	l.WriteAcked(1, []int64{2, 3})
	l.Keep = func(addr int) bool { return addr != 5 }
	l.WriteAcked(4, []int64{5, 6, 7})
	got := make([]int64, 8)
	if l.ReadRange(0, got); got[0] != 1 || got[5] != 6 || l.Reopened() {
		t.Fatalf("before the crash the writer reads %v (reopened %v), want its own writes", got, l.Reopened())
	}
	l.Crash()
	l.ReadRange(0, got)
	if want := [8]int64{0, 2, 3, 0, 5, 0, 7, 0}; [8]int64(got) != want || !l.Reopened() {
		t.Fatalf("after the crash the store holds %v (reopened %v), want %v", got, l.Reopened(), want)
	}
}
