package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// tallyEvents tallies an event log over the jobs [1..n], as one process's
// marks.
func tallyEvents(events []Event, n int) (t Tally) {
	ms := NewMarks(1, n)
	for _, e := range events {
		ms[0].Mark(e.Job)
	}
	t.Merge(n, ms)
	return t
}

// mapTally is the hash-table tally the marks replaced, kept as their
// reference: one map entry per performed job.
func mapTally(events []Event, n int) (distinct, duplicates int, unperformed []int) {
	seen := make(map[int64]int, len(events))
	for _, e := range events {
		seen[e.Job]++
		if seen[e.Job] > 1 {
			duplicates++
		}
	}
	for j := 1; j <= n; j++ {
		if seen[int64(j)] == 0 {
			unperformed = append(unperformed, j)
		}
	}
	return len(seen), duplicates, unperformed
}

// TestTallyAgainstMap feeds random event lists — repeats, and ids outside
// [1..n] on either side included — to both tallies.
func TestTallyAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 400; round++ {
		n := rng.Intn(300) + 1
		events := make([]Event, rng.Intn(3*n))
		for i := range events {
			job := int64(rng.Intn(n) + 1)
			if round%3 == 0 && rng.Intn(16) == 0 {
				job = int64(rng.Intn(3*n) - n) // −n..2n: strays, 0 and negatives too
			}
			events[i] = Event{PID: rng.Intn(4) + 1, Job: job}
		}
		distinct, duplicates, unperformed := mapTally(events, n)
		got := tallyEvents(events, n)
		if got.Distinct != distinct || got.Duplicates != duplicates {
			t.Fatalf("round %d (n=%d, %d events): tally %d distinct %d duplicates, map %d and %d",
				round, n, len(events), got.Distinct, got.Duplicates, distinct, duplicates)
		}
		if u := got.Unperformed(nil); !reflect.DeepEqual(u, unperformed) {
			t.Fatalf("round %d (n=%d): unperformed %v, map %v", round, n, u, unperformed)
		}
	}
}

// TestTallyCountsStrayJobs: an id the universe does not hold is a distinct
// job, and its repeat a duplicate — reported, not dropped, not a panic.
func TestTallyCountsStrayJobs(t *testing.T) {
	got := tallyEvents([]Event{{Job: 1}, {Job: 9}, {Job: 9}, {Job: 0}, {Job: -3}}, 2)
	if got.Distinct != 4 || got.Duplicates != 1 {
		t.Fatalf("got %d distinct, %d duplicates; want 4 and 1", got.Distinct, got.Duplicates)
	}
	if u := got.Unperformed(nil); !reflect.DeepEqual(u, []int{2}) {
		t.Fatalf("unperformed %v, want [2]", u)
	}
}

// TestTallyCoverage is the Write-All postcondition's oracle: Unperformed
// lists the cells of [1..n] no event wrote, a stray id covers none of
// them, and full coverage lists nothing.
func TestTallyCoverage(t *testing.T) {
	events := []Event{{PID: 1, Job: 1}, {PID: 2, Job: 3}, {PID: 2, Job: 9}}
	if u := tallyEvents(events, 4).Unperformed(nil); !reflect.DeepEqual(u, []int{2, 4}) {
		t.Fatalf("unperformed %v, want [2 4]", u)
	}
	if u := tallyEvents(events, 1).Unperformed(nil); u != nil {
		t.Fatalf("full coverage reported %v unperformed", u)
	}
}

// TestTallyMergesMarks is the concurrent runtime's use of the oracle:
// each worker marks its own bitmap, and the tally ORs them and sums their
// do counts. A job two workers did and a job one worker did twice are
// each one duplicate; a stray id is a distinct job, not a dropped one; and
// a second round on the same bitmaps and tally starts from nothing.
func TestTallyMergesMarks(t *testing.T) {
	const n = 130 // three words a worker
	ms := NewMarks(2, 4*n)
	var tally Tally
	round := func(do1, do2 []int64) (distinct, duplicates int, unperformed []int) {
		ms[0].Reset(n)
		ms[1].Reset(n)
		for _, j := range do1 {
			ms[0].Mark(j)
		}
		for _, j := range do2 {
			ms[1].Mark(j)
		}
		tally.Merge(n, ms)
		return tally.Distinct, tally.Duplicates, tally.Unperformed(nil)
	}
	all := func(except ...int) []int {
		var out []int
		for j := 1; j <= n; j++ {
			if !slices.Contains(except, j) {
				out = append(out, j)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name                 string
		do1, do2             []int64
		distinct, duplicates int
		unperformed          []int
	}{
		{"one job done by two workers", []int64{5, 64}, []int64{64, n}, 3, 1, all(5, 64, n)},
		{"one job done twice by one worker", []int64{7, 7, 128}, []int64{129}, 3, 1, all(7, 128, 129)},
		{"a stray id", []int64{1, n + 1}, []int64{0, n + 1}, 3, 1, all(1)},
		{"a second round on the same bitmaps", []int64{2}, []int64{3}, 2, 0, all(2, 3)},
	} {
		distinct, duplicates, unperformed := round(tc.do1, tc.do2)
		if distinct != tc.distinct || duplicates != tc.duplicates || !reflect.DeepEqual(unperformed, tc.unperformed) {
			t.Errorf("%s: %d distinct, %d duplicates, %d unperformed; want %d, %d, %d",
				tc.name, distinct, duplicates, len(unperformed), tc.distinct, tc.duplicates, len(tc.unperformed))
		}
	}
}

// TestLiveReusesItsBuffer pins Live's contract: the ids of the running
// processes, in a slice that the next call overwrites.
func TestLiveReusesItsBuffer(t *testing.T) {
	w := newToyWorld(3, 1, 2)
	first := w.Live()
	if !reflect.DeepEqual(first, []int{1, 2, 3}) {
		t.Fatalf("Live = %v, want [1 2 3]", first)
	}
	w.Procs[0].Crash()
	if second := w.Live(); !reflect.DeepEqual(second, []int{2, 3}) || &second[0] != &first[0] {
		t.Fatalf("Live after a crash = %v (same buffer: %v), want [2 3] in the same buffer",
			second, &second[0] == &first[0])
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Live() }); allocs != 0 {
		t.Fatalf("Live allocates %v times per call", allocs)
	}
}
