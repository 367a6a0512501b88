package sim

import "atmostonce/internal/denseset"

// Marks is one process's record of its own dos over the jobs [1..n]: a bit
// per job it did, its number of dos, and the ids outside [1..n] it did,
// which no correct execution produces. The process owns its Marks, so a
// do is marked without synchronization; a Tally merges the marks of every
// process once they stop.
type Marks struct {
	words  []uint64 // bit j is job j
	n, dos int
	stray  []int64
}

// NewMarks returns the marks of m processes over the jobs [1..n], their
// bitmaps in one array, each padded to whole cache lines (8 words) so
// that processes marking side by side do not false-share.
func NewMarks(m, n int) []Marks {
	stride := (n>>6 + 8) &^ 7
	words := make([]uint64, m*stride)
	ms := make([]Marks, m)
	for i := range ms {
		ms[i] = Marks{words: words[i*stride : i*stride+n>>6+1 : (i+1)*stride], n: n}
	}
	return ms
}

// Reset starts m over the jobs [1..n], n at most the one it was made for:
// it clears n/64+1 words of its bitmap.
func (m *Marks) Reset(n int) {
	m.words, m.n, m.dos, m.stray = m.words[:n>>6+1], n, 0, m.stray[:0]
	clear(m.words)
}

// Mark records one do of job.
func (m *Marks) Mark(job int64) {
	m.dos++
	if job < 1 || job > int64(m.n) {
		m.stray = append(m.stray, job)
		return
	}
	m.words[job>>6] |= 1 << (job & 63)
}

// Tally is the at-most-once oracle over one finished execution's dos,
// shared by Run's Result and the concurrent runtime's rounds: the OR
// of the processes' Marks in a denseset, and the sum of their do counts.
type Tally struct {
	// Distinct is Do(α), the number of distinct jobs performed.
	Distinct int
	// Duplicates is the number of do events beyond the first per job; any
	// nonzero value is an at-most-once violation.
	Duplicates int

	n, dos    int
	performed denseset.Set
	stray     map[int64]struct{} // nil unless a process did a stray id
}

// Reset empties t for the jobs [1..n], keeping its storage.
func (t *Tally) Reset(n int) {
	t.performed.Clear()
	t.performed.Reserve(n)
	*t = Tally{n: n, performed: t.performed}
}

// Merge tallies the marks of every process over the jobs [1..n], keeping
// t's storage: an OR and a popcount per word of each bitmap. A stray id is
// counted, not dropped: it is a distinct job, and its repeat a duplicate.
func (t *Tally) Merge(n int, ms []Marks) {
	t.Reset(n)
	for i := range ms {
		t.performed.OrWords(0, ms[i].words)
		for _, j := range ms[i].stray {
			if t.stray == nil {
				t.stray = make(map[int64]struct{})
			}
			t.stray[j] = struct{}{}
		}
		t.dos += ms[i].dos
	}
	t.Distinct = t.performed.Len() + len(t.stray)
	t.Duplicates = t.dos - t.Distinct
}

// Unperformed appends the jobs of [1..n] that no process did to dst, in
// ascending order: the zero bits of the merged bitmap. With a nil dst it
// returns nil when every job was performed.
func (t Tally) Unperformed(dst []int) []int {
	return t.performed.AppendAbsent(dst, 1, t.n)
}
