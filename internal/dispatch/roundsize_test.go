package dispatch

import (
	"context"
	"math/bits"
	"reflect"
	"testing"
)

// rtSlots is the number of job slots a shard's round runtime holds: the
// row length of its register file, which conc keeps unexported.
func rtSlots(s *shard) int {
	return int(reflect.ValueOf(s.rt).Elem().FieldByName("lay").FieldByName("RowLen").Int())
}

// TestShardHoldsItsRounds: a shard's round state is sized by the rounds it
// has cut, not by MaxBatch — a dispatcher admitting 4 096-job rounds that
// only ever ran one job at a time holds a handful of slots per shard.
func TestShardHoldsItsRounds(t *testing.T) {
	d, err := New(Config{Shards: 2, WorkersPerShard: 2, MaxBatch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		h, err := d.Do(context.Background(), Task{Fn: func(context.Context) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		<-h.Done()
	}
	d.Close() // the loops have exited: their round state is ours to read
	for _, s := range d.shards {
		if b, r := len(s.batch), rtSlots(s); b > 64 || r > 64 {
			t.Errorf("shard %d holds a %d-slot batch and a %d-slot runtime after 1-job rounds, want ≤ 64 each", s.id, b, r)
		}
	}
}

// TestBacklogStillReachesMaxBatch: a shard whose batch stayed small
// still cuts MaxBatch rounds for a backlog — the round limit is MaxBatch
// and the controller's 2×-per-round ramp, never the length of the batch
// it happens to hold — and an idle thief still takes up to MaxBatch jobs
// in one steal.
func TestBacklogStillReachesMaxBatch(t *testing.T) {
	const maxBatch, jobs = 4096, 50_000
	// RoundTarget < 0: the ramp alone sizes rounds, so the count below
	// does not depend on how fast this machine runs them.
	d, err := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: maxBatch, RoundTarget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	task := Task{Fn: func(context.Context) error { return nil }}
	for i := 0; i < 100; i++ {
		h, err := d.Do(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		<-h.Done()
	}
	before := d.Stats().Rounds
	// Wedge the loop in a 1-job round so the whole backlog meets the ramp.
	started, gate := make(chan struct{}), make(chan struct{})
	if _, err := d.Do(context.Background(), bare(func() { close(started); <-gate })); err != nil {
		t.Fatal(err)
	}
	<-started
	r := new(countRunner)
	tasks := make([]RunnerTask, jobs)
	for i := range tasks {
		tasks[i] = RunnerTask{Runner: r}
	}
	if _, err := d.DoRunners(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	close(gate)
	d.Flush()
	// The wedged round, the ramp 2, 4, …, MaxBatch, then full rounds with
	// a round's slack for the residue the rounds carry over. A limit held
	// below MaxBatch would need at least twice the full rounds.
	rounds := d.Stats().Rounds - before
	if want := 1 + bits.Len(maxBatch) + jobs/maxBatch + 2; rounds > uint64(want) {
		t.Errorf("a %d-job backlog took %d rounds after 1-job rounds, want ≤ %d (MaxBatch %d reached within the ramp)",
			jobs, rounds, want, maxBatch)
	}
	if ran := r.ran.Load(); ran != jobs {
		t.Errorf("ran %d of %d jobs", ran, jobs)
	}

	// One steal by a thief that has never cut a round: a bare pair of
	// shards, no loops, so the steal is the only thing that moves jobs.
	sd := &Dispatcher{cfg: Config{WorkersPerShard: 2, MaxBatch: maxBatch}}
	thief, victim := &shard{d: sd, id: 0, m: 2}, &shard{d: sd, id: 1, m: 2}
	sd.shards = []*shard{thief, victim}
	for i := 1; i <= jobs; i++ {
		victim.q.pushBack(entry{id: uint64(i), run: r})
	}
	if k := thief.stealWork(); k != maxBatch || thief.q.len() != maxBatch {
		t.Errorf("one steal from a %d-job backlog moved %d (thief queue %d), want MaxBatch %d", jobs, k, thief.q.len(), maxBatch)
	}
}
