package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// mapTally is the hash-table tally TallyEvents replaced, kept as its
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
		got := TallyEvents(events, n)
		if got.Distinct != distinct || got.Duplicates != duplicates {
			t.Fatalf("round %d (n=%d, %d events): tally %d distinct %d duplicates, map %d and %d",
				round, n, len(events), got.Distinct, got.Duplicates, distinct, duplicates)
		}
		if u := got.Unperformed(); !reflect.DeepEqual(u, unperformed) {
			t.Fatalf("round %d (n=%d): unperformed %v, map %v", round, n, u, unperformed)
		}
	}
}

// TestTallyCountsStrayJobs: an id the universe does not hold is a distinct
// job, and its repeat a duplicate — reported, not dropped, not a panic.
func TestTallyCountsStrayJobs(t *testing.T) {
	got := TallyEvents([]Event{{Job: 1}, {Job: 9}, {Job: 9}, {Job: 0}, {Job: -3}}, 2)
	if got.Distinct != 4 || got.Duplicates != 1 {
		t.Fatalf("got %d distinct, %d duplicates; want 4 and 1", got.Distinct, got.Duplicates)
	}
	if u := got.Unperformed(); !reflect.DeepEqual(u, []int{2}) {
		t.Fatalf("unperformed %v, want [2]", u)
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
