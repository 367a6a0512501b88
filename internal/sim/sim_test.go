package sim

import (
	"errors"
	"testing"

	"atmostonce/internal/shmem"
)

// toyProc writes its id into register id-1 a fixed number of times, then
// terminates. One write per step.
type toyProc struct {
	Base
	left int
	mem  shmem.Mem
}

func (p *toyProc) Step() {
	if p.left == 0 {
		p.End()
		return
	}
	p.mem.Write(p.ID()-1, int64(p.ID()))
	p.Do(int64(p.left))
	p.left--
}

func newToyWorld(m, writes, maxCrashes int) *World {
	mem := shmem.NewSim(m)
	return Assemble(m, mem, maxCrashes, func(id int, sink DoSink) Process {
		return &toyProc{Base: NewBase(id, sink), left: writes, mem: mem}
	})
}

func TestRunRoundRobinTerminates(t *testing.T) {
	w := newToyWorld(4, 10, 0)
	res, err := Run(w, &RoundRobin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DoneProcs != 4 || res.CrashProcs != 0 {
		t.Fatalf("done=%d crashed=%d, want 4,0", res.DoneProcs, res.CrashProcs)
	}
	// Each process: 10 writes + 1 terminating step.
	if res.Steps != 44 {
		t.Fatalf("steps = %d, want 44", res.Steps)
	}
	if res.MemWrites != 40 {
		t.Fatalf("writes = %d, want 40", res.MemWrites)
	}
	if res.TotalWork != 40 {
		t.Fatalf("work = %d, want 40", res.TotalWork)
	}
	if len(res.Events) != 40 {
		t.Fatalf("events = %d, want 40", len(res.Events))
	}
}

func TestRunStepLimit(t *testing.T) {
	w := newToyWorld(2, 1000, 0)
	_, err := Run(w, &RoundRobin{}, 10)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// TestCrashBudgetClamped: a built world is every process's sink, and
// its crash budget is clamped to [0, m−1] (f < m).
func TestCrashBudgetClamped(t *testing.T) {
	for _, tc := range []struct{ f, want int }{{5, 2}, {3, 2}, {2, 2}, {1, 1}, {-1, 0}} {
		w := newToyWorld(3, 1, tc.f)
		if w.MaxCrashes != tc.want {
			t.Errorf("f=%d: MaxCrashes = %d, want %d", tc.f, w.MaxCrashes, tc.want)
		}
		for _, p := range w.Procs {
			if p.(*toyProc).sink != w {
				t.Fatalf("process %d reports to %v, not its world", p.ID(), p.(*toyProc).sink)
			}
		}
	}
}

func TestCrashListCrashesVictims(t *testing.T) {
	w := newToyWorld(4, 5, 2)
	adv := &CrashList{Victims: []int{1, 3}, Then: &RoundRobin{}}
	res, err := Run(w, adv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", res.Crashes)
	}
	if w.Procs[0].Status() != Crashed || w.Procs[2].Status() != Crashed {
		t.Fatal("victims not crashed")
	}
	if w.Procs[1].Status() != Done || w.Procs[3].Status() != Done {
		t.Fatal("survivors not done")
	}
	// Crashed before any step: only survivors produced events.
	for _, e := range res.Events {
		if e.PID == 1 || e.PID == 3 {
			t.Fatalf("crashed process %d produced event", e.PID)
		}
	}
}

func TestCrashBudgetEnforced(t *testing.T) {
	w := newToyWorld(3, 2, 1)
	adv := &CrashList{Victims: []int{1, 2, 3}, Then: &RoundRobin{}}
	res, err := Run(w, adv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1 (budget)", res.Crashes)
	}
	if res.DoneProcs != 2 {
		t.Fatalf("done = %d, want 2", res.DoneProcs)
	}
}

func TestRandomAdversaryDeterministic(t *testing.T) {
	run := func() *Result {
		w := newToyWorld(3, 20, 1)
		adv := NewRandom(42)
		adv.CrashProb = 0.05
		res, err := Run(w, adv, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Crashes != b.Crashes || len(a.Events) != len(b.Events) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSoloRunsOneProcessFirst(t *testing.T) {
	w := newToyWorld(3, 4, 0)
	res, err := Run(w, &Solo{PID: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First 4 events must all belong to process 2.
	for i := 0; i < 4; i++ {
		if res.Events[i].PID != 2 {
			t.Fatalf("event %d from pid %d, want 2", i, res.Events[i].PID)
		}
	}
}

func TestScriptedReplaysThenDelegates(t *testing.T) {
	w := newToyWorld(2, 3, 0)
	script := []Decision{StepOf(2), StepOf(2), StepOf(1)}
	res, err := Run(w, &Scripted{Script: script, Then: &RoundRobin{}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events[0].PID != 2 || res.Events[1].PID != 2 || res.Events[2].PID != 1 {
		t.Fatalf("script not honored: %+v", res.Events[:3])
	}
}

func TestAdversaryChoosesStoppedProcess(t *testing.T) {
	w := newToyWorld(2, 1, 0)
	// Malformed adversary that always names process 1.
	bad := adversaryFunc(func(*World) Decision { return StepOf(1) })
	_, err := Run(w, bad, 0)
	if err == nil {
		t.Fatal("expected error when adversary steps a stopped process")
	}
}

type adversaryFunc func(*World) Decision

func (f adversaryFunc) Next(w *World) Decision { return f(w) }

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{Running, "running"}, {Done, "done"}, {Crashed, "crashed"}, {Status(9), "Status(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestObserverRunsBeforeEveryDecision(t *testing.T) {
	w := newToyWorld(2, 3, 0)
	var calls []uint64
	obs := &Observer{Inner: &RoundRobin{}, Fn: func(w *World) {
		calls = append(calls, w.Steps())
	}}
	res, err := Run(w, obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(calls)) != res.Steps {
		t.Fatalf("observer called %d times for %d steps", len(calls), res.Steps)
	}
	for i, c := range calls {
		if c != uint64(i) {
			t.Fatalf("call %d saw step counter %d (must run before the step)", i, c)
		}
	}
}

func TestObserverNilFn(t *testing.T) {
	w := newToyWorld(2, 2, 0)
	if _, err := Run(w, &Observer{Inner: &RoundRobin{}}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestStepBudget: a process crashes once it has been granted its budget,
// and not if it ends within it, whatever order Then picks; a world whose
// processes keep their own registers runs with a nil Mem.
func TestStepBudget(t *testing.T) {
	w := newToyWorld(3, 10, 2) // a toy ends at its 11th step
	w.Mem = nil
	res, err := Run(w, &StepBudget{Steps: []uint64{0, 4, 11}, Then: NewRandom(3)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashProcs != 1 || w.Procs[1].Status() != Crashed {
		t.Fatalf("crashed %d (process 2 %s), want process 2 alone", res.CrashProcs, w.Procs[1].Status())
	}
	dos := 0
	for _, e := range res.Events {
		if e.PID == 2 {
			dos++
		}
	}
	if dos != 4 || res.MemReads != 0 || res.MemWrites != 0 {
		t.Fatalf("process 2 did %d jobs in its budget of 4; mem counts %d/%d with no Mem", dos, res.MemReads, res.MemWrites)
	}
}
