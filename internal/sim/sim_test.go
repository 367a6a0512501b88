package sim

import (
	"errors"
	"reflect"
	"slices"
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

// newToyWorld is a world of m toys over the jobs [1..writes] that keeps
// its do events.
func newToyWorld(m, writes, maxCrashes int) *World {
	return newToyMarks(m, writes, maxCrashes).KeepEvents()
}

// newToyMarks is the same world marking its dos only.
func newToyMarks(m, writes, maxCrashes int) *World {
	mem := shmem.NewSim(m)
	return Assemble(m, writes, mem, maxCrashes, func(id int, sink DoSink) Process {
		return &toyProc{Base: NewBase(id, sink), left: writes, mem: mem}
	})
}

// TestWorldMarksDos: every world marks each do in the doer's marks, one
// that keeps events logs it too, and the marks' tally is the tally of the
// same execution's log and of its Result. A built world whose processes
// never do leaves every job unperformed; a world of own-sink processes
// tallies nothing.
func TestWorldMarksDos(t *testing.T) {
	logged, marked := newToyWorld(3, 10, 1), newToyMarks(3, 10, 1)
	if logged.marks != nil || marked.marks != nil {
		t.Fatal("marks made before the first do")
	}
	var results [2]*Result
	for i, w := range []*World{logged, marked} {
		adv := NewRandom(5)
		adv.CrashProb = 0.05
		res, err := Run(w, adv, 0)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if results[1].Events != nil || marked.events != nil {
		t.Fatalf("a marking world logged %d events", len(results[1].Events))
	}
	want := tallyEvents(results[0].Events, 10)
	for i, w := range []*World{logged, marked} {
		var got Tally
		got.Merge(10, w.marks)
		if got.Distinct != want.Distinct || got.Duplicates != want.Duplicates || want.Duplicates == 0 {
			t.Fatalf("world %d's marks tally %d distinct, %d duplicates; the log %d, %d (the toys repeat jobs)",
				i, got.Distinct, got.Duplicates, want.Distinct, want.Duplicates)
		}
		res := results[i]
		if res.Distinct != got.Distinct || res.Duplicates != got.Duplicates ||
			!reflect.DeepEqual(res.Unperformed(nil), got.Unperformed(nil)) {
			t.Fatalf("world %d's result tallies %d distinct, %d duplicates, unperformed %v; its marks %d, %d, %v",
				i, res.Distinct, res.Duplicates, res.Unperformed(nil), got.Distinct, got.Duplicates, got.Unperformed(nil))
		}
	}
	if results[0].Steps != results[1].Steps || results[0].Work != results[1].Work {
		t.Fatal("the executions differ")
	}

	idle := Assemble(2, 5, nil, 0, func(id int, sink DoSink) Process {
		return &toyProc{Base: NewBase(id, sink)}
	})
	res, err := Run(idle, &RoundRobin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Unperformed(nil); res.Distinct != 0 || !reflect.DeepEqual(u, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("processes that never do: %d distinct, unperformed %v; want 0 and [1 2 3 4 5]", res.Distinct, u)
	}

	var dos countSink
	procs := []Process{&toyProc{Base: NewBase(1, &dos), left: 3, mem: shmem.NewSim(1)}}
	res, err = Run(NewWorld(procs, nil, 0), &RoundRobin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != 0 || res.Duplicates != 0 || res.Unperformed(nil) != nil || dos != 3 {
		t.Fatalf("a world of own-sink processes tallied %d distinct, %d duplicates, unperformed %v (its sink saw %d dos)",
			res.Distinct, res.Duplicates, res.Unperformed(nil), dos)
	}
}

// countSink is a process's own sink: it counts the dos.
type countSink int

func (c *countSink) RecordDo(int, int64) { *c++ }

func TestRunRoundRobinTerminates(t *testing.T) {
	w := newToyWorld(4, 10, 0)
	res, err := Run(w, &RoundRobin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Procs {
		if p.Status() != Done {
			t.Fatalf("process %d %s, want done", p.ID(), p.Status())
		}
	}
	// Each process: 10 writes + 1 terminating step.
	if res.Steps != 44 {
		t.Fatalf("steps = %d, want 44", res.Steps)
	}
	if res.MemWrites != 40 {
		t.Fatalf("writes = %d, want 40", res.MemWrites)
	}
	if res.Work != 40 {
		t.Fatalf("work = %d, want 40", res.Work)
	}
	if len(res.Events) != 40 {
		t.Fatalf("events = %d, want 40", len(res.Events))
	}
}

// TestRunStepLimit: the limit stops a run where the adversary decides and
// inside the forced tail alike, and a run of exactly the limit completes.
// Under Solo{1} a toy of 10 jobs ends at step 11 and the other's 11 steps
// are the tail.
func TestRunStepLimit(t *testing.T) {
	w := newToyWorld(2, 1000, 0)
	_, err := Run(w, &RoundRobin{}, 10)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	for _, tc := range []struct {
		limit uint64
		err   error
	}{{15, ErrStepLimit}, {22, nil}} {
		res, err := Run(newToyWorld(2, 10, 0), &Solo{PID: 1}, tc.limit)
		if !errors.Is(err, tc.err) || res.Steps != min(tc.limit, 22) {
			t.Fatalf("limit %d: %d steps, err = %v; want %d, %v", tc.limit, res.Steps, err, min(tc.limit, 22), tc.err)
		}
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

// TestCrashBudgetEnforced: a crash past the budget becomes a step, and a
// budget left when one process remains still lets the adversary crash it.
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
	if w.Procs[0].Status() != Crashed || w.Procs[1].Status() != Done || w.Procs[2].Status() != Done {
		t.Fatalf("statuses %s %s %s, want process 1 crashed and the others done",
			w.Procs[0].Status(), w.Procs[1].Status(), w.Procs[2].Status())
	}

	w = newToyWorld(3, 2, 2)
	last := adversaryFunc(func(w *World) Decision {
		if live := w.Live(); len(live) > 1 {
			return StepOf(live[0])
		}
		return CrashOf(3)
	})
	res, err = Run(w, last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Steps != 6 || w.Procs[2].Status() != Crashed {
		t.Fatalf("%d crashes in %d steps, process 3 %s; want 1 in 6, crashed before its first step",
			res.Crashes, res.Steps, w.Procs[2].Status())
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

// TestAdversaryChoosesStoppedProcess: three processes, so that the
// adversary still has a choice once process 1 ends; two would leave
// process 2 to the forced tail, where the adversary is not asked.
func TestAdversaryChoosesStoppedProcess(t *testing.T) {
	w := newToyWorld(3, 1, 0)
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

// TestWatchSeesEveryAction: the world's Watch runs before every action,
// a crash or a step, the forced tail's too, and the adversary is asked
// exactly while it has a choice. Process 1 crashes at once, 2 and 3
// alternate until 2 ends at step 7, and 3's last step is forced.
func TestWatchSeesEveryAction(t *testing.T) {
	w := newToyWorld(3, 3, 1)
	var seen []uint64
	w.Watch = func(w *World) { seen = append(seen, w.Steps()) }
	asked, inner := 0, &CrashList{Victims: []int{1}, Then: &RoundRobin{}}
	adv := adversaryFunc(func(w *World) Decision {
		if len(w.Live()) == 1 && !w.CanCrash() {
			t.Fatalf("asked at step %d with one process left and no crash", w.Steps())
		}
		asked++
		return inner.Next(w)
	})
	res, err := Run(w, adv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 0, 1, 2, 3, 4, 5, 6, 7}; res.Crashes != 1 || res.Steps != 8 || asked != 8 || !slices.Equal(seen, want) {
		t.Fatalf("%d crashes, %d steps, asked %d times, Watch saw steps %v; want 1, 8, 8 and %v",
			res.Crashes, res.Steps, asked, seen, want)
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
	if res.Crashes != 1 || w.Procs[1].Status() != Crashed {
		t.Fatalf("crashed %d (process 2 %s), want process 2 alone", res.Crashes, w.Procs[1].Status())
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
