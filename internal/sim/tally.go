package sim

import "atmostonce/internal/denseset"

// Tally is the at-most-once oracle over one finished execution's do
// events, shared by the simulator's report and the concurrent runtime's.
type Tally struct {
	// Distinct is Do(α), the number of distinct jobs performed.
	Distinct int
	// Duplicates is the number of do events beyond the first per job; any
	// nonzero value is an at-most-once violation.
	Duplicates int

	n         int
	performed *denseset.Set
}

// TallyEvents counts events over the job universe [1..n] in a bitmap
// indexed by job id, not a hash table keyed by it. An id outside [1..n] —
// which no correct execution produces — is still counted, in a map that
// stays nil otherwise: the oracle must report a stray job, not drop it.
func TallyEvents(events []Event, n int) Tally {
	t := Tally{n: n, performed: denseset.New()}
	t.performed.Reserve(n)
	var stray map[int64]struct{}
	for _, e := range events {
		if e.Job >= 1 && e.Job <= int64(n) {
			t.performed.Insert(int(e.Job))
			continue
		}
		if stray == nil {
			stray = make(map[int64]struct{})
		}
		stray[e.Job] = struct{}{}
	}
	t.Distinct = t.performed.Len() + len(stray)
	t.Duplicates = len(events) - t.Distinct
	return t
}

// Unperformed lists the jobs of [1..n] that no event names, in ascending
// order; nil when every job was performed.
func (t Tally) Unperformed() []int {
	var out []int
	for j := 1; j <= t.n; j++ {
		if !t.performed.Contains(j) {
			out = append(out, j)
		}
	}
	return out
}
