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

// Reset starts m over the jobs [1..n] on words, which must hold at least
// n/64+1 words: it clears that many and marks in them.
func (m *Marks) Reset(words []uint64, n int) {
	m.words, m.n, m.dos, m.stray = words[:n>>6+1], n, 0, m.stray[:0]
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
// shared by the simulator's report and the concurrent runtime's: the OR
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

// Add merges one process's marks: an OR and a popcount per word of the
// bitmap. A stray id is counted, not dropped: it is a distinct job, and
// its repeat a duplicate.
func (t *Tally) Add(m *Marks) {
	t.performed.OrWords(0, m.words)
	for _, j := range m.stray {
		if t.stray == nil {
			t.stray = make(map[int64]struct{})
		}
		t.stray[j] = struct{}{}
	}
	t.dos += m.dos
	t.Distinct = t.performed.Len() + len(t.stray)
	t.Duplicates = t.dos - t.Distinct
}

// TallyEvents tallies an event log over the jobs [1..n], as one process's
// marks.
func TallyEvents(events []Event, n int) (t Tally) {
	var m Marks
	m.Reset(make([]uint64, n>>6+1), n)
	for _, e := range events {
		m.Mark(e.Job)
	}
	t.Reset(n)
	t.Add(&m)
	return t
}

// Unperformed appends the jobs of [1..n] that no process did to dst, in
// ascending order: the zero bits of the merged bitmap. With a nil dst it
// returns nil when every job was performed.
func (t Tally) Unperformed(dst []int) []int {
	return t.performed.AppendAbsent(dst, 1, t.n)
}
