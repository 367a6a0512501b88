package dispatch

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestEffBucket pins the histogram's bucket boundaries: bucket i holds
// loss fractions in (2⁻⁽ⁱ⁺¹⁾, 2⁻ⁱ], the last bucket is loss 0.
func TestEffBucket(t *testing.T) {
	cases := []struct {
		performed, batch, want int
	}{
		{100, 100, EffBuckets - 1}, // perfect
		{1, 1, EffBuckets - 1},
		{0, 100, 0}, // total loss
		{0, 1, 0},
		{49, 100, 0},                         // loss 0.51 > 1/2
		{50, 100, 1},                         // loss 0.50 ∈ (1/4, 1/2]
		{75, 100, 2},                         // loss 0.25 ∈ (1/8, 1/4]
		{99, 100, 6},                         // loss 0.01 ∈ (2⁻⁷, 2⁻⁶]
		{1023, 1024, EffBuckets - 2},         // loss 2⁻¹⁰ lands in the sweep-up bucket
		{1 << 20, 1<<20 + 1, EffBuckets - 2}, // tinier loss clamps there too
	}
	for _, c := range cases {
		if got := effBucket(c.performed, c.batch); got != c.want {
			t.Errorf("effBucket(%d, %d) = %d, want %d", c.performed, c.batch, got, c.want)
		}
	}
}

// TestEffHistCountsRounds: every executed round lands in exactly one
// bucket, crash-injected rounds included, and the aggregate equals the
// per-shard sums.
func TestEffHistCountsRounds(t *testing.T) {
	var ran atomic.Int64
	d, err := New(Config{
		Shards: 2, Workers: 3, MaxBatch: 32,
		Seed: 7,
		// Crash two of three workers early in every shard's first three
		// rounds, so imperfect rounds are guaranteed to occur.
		CrashPlan: func(shard, round int) []uint64 {
			if round < 3 {
				return []uint64{2, 2, 0}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]Task, 500)
	for i := range fns {
		fns[i] = bare(func() { ran.Add(1) })
	}
	if _, err := d.DoBatch(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	st := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 500 {
		t.Fatalf("ran %d payloads, want 500", ran.Load())
	}
	var sum, shardSum uint64
	for _, n := range st.EffHist {
		sum += n
	}
	for _, sh := range st.Shards {
		for _, n := range sh.EffHist {
			shardSum += n
		}
	}
	if sum != st.Rounds {
		t.Fatalf("EffHist sums to %d, want Rounds = %d (hist %v)", sum, st.Rounds, st.EffHist)
	}
	if shardSum != sum {
		t.Fatalf("per-shard histograms sum to %d, aggregate says %d", shardSum, sum)
	}
	if st.Crashes == 0 {
		t.Fatal("crash plan injected no crashes; the imperfect-round premise is broken")
	}
	var imperfect uint64
	for b := 0; b < EffBuckets-1; b++ {
		imperfect += st.EffHist[b]
	}
	if imperfect == 0 {
		t.Fatalf("no imperfect rounds recorded despite %d crashes (hist %v)", st.Crashes, st.EffHist)
	}
}
