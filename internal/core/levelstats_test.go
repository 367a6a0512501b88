package core

import (
	"testing"

	"atmostonce/internal/sim"
)

func TestLevelStatsAccounting(t *testing.T) {
	const n, m = 4096, 2
	s, err := NewIterSystem(IterConfig{N: n, M: m, EpsDenom: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(&sim.RoundRobin{}, testStepLimit)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Procs {
		stats := p.LevelStats()
		if len(stats) != len(s.Levels) {
			t.Fatalf("proc %d recorded %d levels, want %d", p.ID(), len(stats), len(s.Levels))
		}
		for i, st := range stats {
			if st.Size != s.Levels[i].Size || st.Blocks != s.Levels[i].Blocks {
				t.Fatalf("proc %d level %d descriptor mismatch: %+v vs %+v",
					p.ID(), i, st, s.Levels[i])
			}
			if st.Performed < 0 || st.Output < 0 || st.Input < 0 {
				t.Fatalf("negative counters: %+v", st)
			}
			// A process never performs more blocks than it received.
			if st.Performed > st.Input {
				t.Fatalf("proc %d level %d performed %d of %d inputs",
					p.ID(), i, st.Performed, st.Input)
			}
			// Outputs never exceed inputs minus own performed blocks.
			if st.Output > st.Input-st.Performed {
				t.Fatalf("proc %d level %d output %d > input %d - performed %d",
					p.ID(), i, st.Output, st.Input, st.Performed)
			}
		}
	}
	// Total jobs performed across processes and levels must cover the
	// do count.
	totalJobs := 0
	for _, p := range s.Procs {
		for _, st := range p.LevelStats() {
			totalJobs += st.Performed * st.Size
		}
	}
	// Performed counts blocks; block sizes may be truncated at the tail,
	// so totalJobs over-counts by at most one block's worth.
	if dos := rep.Distinct + rep.Duplicates; dos == 0 || totalJobs < dos {
		t.Fatalf("level stats account for %d jobs, the tally says %d dos", totalJobs, dos)
	}
}

func TestLevelStatsDegenerateDetection(t *testing.T) {
	// m=8 at small n: coarse levels have fewer blocks than β=3m²=192 and
	// must be flagged degenerate (the E5/E8 out-of-regime collapse).
	const n, m = 4096, 8
	s, err := NewIterSystem(IterConfig{N: n, M: m, EpsDenom: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&sim.RoundRobin{}, testStepLimit); err != nil {
		t.Fatal(err)
	}
	stats := s.Procs[0].LevelStats()
	if !stats[0].Degenerate {
		t.Fatalf("coarse level not flagged degenerate: %+v (β=%d)", stats[0], s.Cfg.Beta)
	}
	last := stats[len(stats)-1]
	if last.Degenerate {
		t.Fatalf("final level flagged degenerate: %+v", last)
	}
	if last.Performed == 0 {
		t.Fatal("final level performed nothing for process 1")
	}
}
