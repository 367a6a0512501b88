package memtest

import (
	"slices"
	"testing"
	"time"

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
// and of a torn write exactly the cells its tear keeps do — in the store
// a host's death leaves its successor as in the dead store crashed.
func TestLossyCrash(t *testing.T) {
	l := NewLossy(8)
	h := NewHost(2, func(i, n int) bool { return i != 1 }, l)
	l.Write(0, 1)
	l.WriteAcked(1, []int64{2, 3})
	torn := make(chan error)
	go func() { torn <- l.WriteAcked(4, []int64{5, 6, 7}) }()
	succ := h.Death().Stores[0]
	got := make([]int64, 8)
	if l.ReadRange(0, got); got[0] != 1 || got[5] != 6 || l.Reopened() {
		t.Fatalf("before the crash the writer reads %v (reopened %v), want its own writes", got, l.Reopened())
	}
	l.Crash()
	want := [8]int64{0, 2, 3, 0, 5, 0, 7, 0}
	for _, st := range []*Lossy{succ, l} {
		if st.ReadRange(0, got); [8]int64(got) != want || !st.Reopened() {
			t.Fatalf("after the crash the store holds %v (reopened %v), want %v", got, st.Reopened(), want)
		}
	}
	h.Bury()
	<-torn
}

// TestLossyDiesOnCue: a host dies at its at-th acked write, counted
// across its stores. In each phase — before the write, torn, acked — the
// fatal write leaves exactly the cells its tear keeps for the successor
// and returns only when acked; nothing the dead incarnation does later
// reaches the successor's stores, no payload starts, and its acked
// writes wait for the burial. A store counts the cells and calls it
// serves.
func TestLossyDiesOnCue(t *testing.T) {
	for _, ph := range []struct {
		name string
		tear func(i, n int) bool
	}{
		{"before", func(i, n int) bool { return false }},
		{"torn-first", func(i, n int) bool { return i == 0 }},
		{"torn-last", func(i, n int) bool { return i == n-1 }},
		{"torn-every-other", func(i, n int) bool { return i%2 == 0 }},
		{"torn-all", func(i, n int) bool { return true }},
		{"acked", nil},
	} {
		t.Run(ph.name, func(t *testing.T) {
			a, b := NewLossy(8), NewLossy(8)
			h := NewHost(2, ph.tear, a, b)
			if err := a.WriteAcked(0, []int64{1, 2}); err != nil {
				t.Fatal(err)
			}
			acked, late := make(chan error, 1), make(chan error, 1)
			go func() { acked <- b.WriteAcked(2, []int64{3, 4, 5}) }()
			if f := h.Death(); f.Store != 1 || f.Addr != 2 || !slices.Equal(f.Old, []int64{0, 0, 0}) || !slices.Equal(f.New, []int64{3, 4, 5}) {
				t.Errorf("fatal write recorded as %+v", f)
			}
			go func() { late <- a.WriteAcked(4, []int64{9}) }()
			a.Write(5, 9)
			a.Sync()
			ran := false
			h.Run(func() { ran = true })
			if ph.tear == nil {
				if err := <-acked; err != nil {
					t.Errorf("the acked fatal write returned %v", err)
				}
			}
			select {
			case err := <-acked:
				t.Errorf("the fatal write of a tear returned %v before the burial", err)
			case <-late:
				t.Error("an acked write of the dead incarnation returned before the burial")
			case <-time.After(10 * time.Millisecond):
			}
			succ := h.Death().Stores
			got := [2][]int64{make([]int64, 8), make([]int64, 8)}
			succ[0].ReadRange(0, got[0])
			succ[1].ReadRange(0, got[1])
			want := [2][]int64{{1, 2, 0, 0, 0, 0, 0, 0}, make([]int64, 8)}
			for i, v := range []int64{3, 4, 5} {
				if ph.tear == nil || ph.tear(i, 3) {
					want[1][2+i] = v
				}
			}
			if !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) || !succ[1].Reopened() || ran {
				t.Errorf("the successor's stores hold %v (reopened %v) and a payload ran %v, want %v and none", got, succ[1].Reopened(), ran, want)
			}
			if got := h.Writes(); !slices.Equal(got, []int{2, 3}) {
				t.Errorf("host counted acked writes of %v cells, want [2 3]", got)
			}
			h.Bury()
			<-late
			if ph.tear != nil {
				<-acked
			}
		})
	}

	l := NewLossy(8)
	l.Read(0)
	l.Write(1, 1)
	l.WriteAcked(2, []int64{1, 1})
	l.ReadRange(0, make([]int64, 3))
	l.Sync()
	l.Close()
	if got, want := l.Counts(), (Counts{Reads: 4, Writes: 3, Ranges: 1, Syncs: 2}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
	if l.Crash(); l.Counts() != (Counts{}) {
		t.Errorf("counts after a crash %+v, want zero", l.Counts())
	}
}
