package verify

import (
	"testing"

	"atmostonce/internal/sim"
)

func TestCheckEventsClean(t *testing.T) {
	events := []sim.Event{
		{PID: 1, Job: 1}, {PID: 2, Job: 2}, {PID: 1, Job: 3},
	}
	rep := CheckEvents(events)
	if !rep.OK() {
		t.Fatalf("clean trace flagged: %v", rep.Violations)
	}
	if rep.Distinct != 3 {
		t.Fatalf("Distinct = %d, want 3", rep.Distinct)
	}
	if rep.Err() != nil {
		t.Fatalf("Err = %v", rep.Err())
	}
}

func TestCheckEventsDuplicate(t *testing.T) {
	events := []sim.Event{
		{PID: 1, Job: 7}, {PID: 2, Job: 7}, {PID: 3, Job: 9},
		{PID: 3, Job: 9}, {PID: 3, Job: 9},
	}
	rep := CheckEvents(events)
	if rep.OK() {
		t.Fatal("duplicates not detected")
	}
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %d, want 2", len(rep.Violations))
	}
	if rep.Violations[0].Job != 7 || rep.Violations[0].Count != 2 {
		t.Fatalf("first violation = %+v", rep.Violations[0])
	}
	if rep.Violations[1].Job != 9 || rep.Violations[1].Count != 3 {
		t.Fatalf("second violation = %+v", rep.Violations[1])
	}
	if rep.Err() == nil {
		t.Fatal("Err = nil for dirty trace")
	}
}

func TestCheckEventsEmpty(t *testing.T) {
	rep := CheckEvents(nil)
	if !rep.OK() || rep.Distinct != 0 {
		t.Fatalf("empty trace: %+v", rep)
	}
}
