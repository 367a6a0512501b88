package core

import (
	"testing"

	"atmostonce/internal/denseset"
	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// collectSink records do events for direct-stepping tests.
type collectSink struct {
	events []sim.Event
}

func (c *collectSink) RecordDo(pid int, job int64) {
	c.events = append(c.events, sim.Event{PID: pid, Job: job})
}

// newPair builds a 2-process instance for direct stepping (no engine).
func newPair(n, beta int, iterStep bool) (*Proc, *Proc, *shmem.SimMem, *collectSink, Layout) {
	lay := Layout{M: 2, RowLen: n, HasFlag: iterStep}
	mem := shmem.NewSim(lay.Size())
	sink := &collectSink{}
	mk := func(id int) *Proc {
		return NewProc(ProcOptions{
			ID: id, Beta: beta, Layout: lay, Mem: mem, Sink: sink,
		})
	}
	return mk(1), mk(2), mem, sink, lay
}

// TestActionSequenceGolden walks process 1 through one complete job cycle
// and checks the phase sequence and shared-memory effects action by
// action, mirroring Figure 2 literally.
func TestActionSequenceGolden(t *testing.T) {
	p1, _, mem, sink, lay := newPair(10, 2, false)

	// comp_next: picks rank ⌊(p−1)·(10−1)/2⌋+1 = 1 → job 1.
	if p1.Phase() != PhaseCompNext {
		t.Fatalf("phase = %v", p1.Phase())
	}
	p1.Step()
	if p1.Phase() != PhaseSetNext || p1.NextJob() != 1 {
		t.Fatalf("after compNext: phase=%v next=%d", p1.Phase(), p1.NextJob())
	}
	if mem.Peek(lay.NextAddr(1)) != 0 {
		t.Fatal("compNext touched shared memory")
	}

	// set_next: announce in next[1].
	p1.Step()
	if p1.Phase() != PhaseGatherTry {
		t.Fatalf("after setNext: phase=%v", p1.Phase())
	}
	if mem.Peek(lay.NextAddr(1)) != 1 {
		t.Fatal("announcement not written")
	}

	// gather_try: m=2 ⇒ two sub-steps (skip self, read peer).
	p1.Step() // Q=1 (self, skip)
	if p1.Phase() != PhaseGatherTry {
		t.Fatalf("gather_try ended early: %v", p1.Phase())
	}
	p1.Step() // Q=2 reads next[2]=0
	if p1.Phase() != PhaseGatherDone {
		t.Fatalf("after gather_try: phase=%v", p1.Phase())
	}
	if p1.TryLen() != 0 {
		t.Fatalf("TRY picked up a phantom announcement: %d", p1.TryLen())
	}

	// gather_done: Q=1 (self, skip), Q=2 (empty row).
	p1.Step()
	p1.Step()
	if p1.Phase() != PhaseCheck {
		t.Fatalf("after gather_done: phase=%v", p1.Phase())
	}

	// check: job 1 is safe.
	p1.Step()
	if p1.Phase() != PhaseDo {
		t.Fatalf("after check: phase=%v", p1.Phase())
	}

	// do: event recorded.
	p1.Step()
	if p1.Phase() != PhaseDoneWrite || len(sink.events) != 1 || sink.events[0].Job != 1 {
		t.Fatalf("after do: phase=%v events=%v", p1.Phase(), sink.events)
	}

	// done: published in row 1, FREE updated, POS advanced.
	p1.Step()
	if p1.Phase() != PhaseCompNext {
		t.Fatalf("after done: phase=%v", p1.Phase())
	}
	if mem.Peek(lay.DoneAddr(1, 1)) != 1 {
		t.Fatal("done entry not published")
	}
	if p1.FreeContains(1) || p1.FreeLen() != 9 {
		t.Fatal("FREE not updated by done")
	}
	if p1.PosOf(1) != 2 {
		t.Fatalf("POS(1) = %d, want 2", p1.PosOf(1))
	}
}

// TestCheckFailsOnAnnouncement: if the peer announced our candidate, the
// check action must bounce us back to comp_next without performing.
func TestCheckFailsOnAnnouncement(t *testing.T) {
	p1, p2, _, sink, _ := newPair(10, 2, false)

	// p2 announces job 1 first (it would pick rank ⌊1·9/2⌋+1 = 5; force
	// the clash by stepping p1's choice into p2's register instead).
	p2.Step() // compNext → NEXT₂ = 5
	p1.Step() // compNext → NEXT₁ = 1
	// Manually make p2 announce 1 to provoke the collision:
	p2.next = 1
	p2.Step() // setNext writes next[2] = 1

	p1.Step() // setNext
	p1.Step() // gatherTry self
	p1.Step() // gatherTry reads next[2] = 1 → TRY = {1}
	if p1.TryLen() != 1 {
		t.Fatalf("TRY = %d, want 1", p1.TryLen())
	}
	p1.Step() // gatherDone self
	p1.Step() // gatherDone peer row empty
	if p1.Phase() != PhaseCheck {
		t.Fatalf("phase = %v", p1.Phase())
	}
	p1.Step() // check: NEXT=1 ∈ TRY → comp_next
	if p1.Phase() != PhaseCompNext {
		t.Fatalf("check did not bounce: %v", p1.Phase())
	}
	if len(sink.events) != 0 {
		t.Fatal("job performed despite announcement clash")
	}
}

// TestGatherDoneDrainsRow: fresh done entries keep Q on the same row,
// one read per action (the POS bookkeeping of Figure 2).
func TestGatherDoneDrainsRow(t *testing.T) {
	p1, _, mem, _, lay := newPair(10, 2, false)
	// Peer published three jobs.
	mem.Write(lay.DoneAddr(2, 1), 7)
	mem.Write(lay.DoneAddr(2, 2), 8)
	mem.Write(lay.DoneAddr(2, 3), 9)

	p1.Step() // compNext
	p1.Step() // setNext
	p1.Step() // gatherTry self
	p1.Step() // gatherTry peer
	if p1.Phase() != PhaseGatherDone {
		t.Fatalf("phase = %v", p1.Phase())
	}
	p1.Step() // Q=1 self → Q=2
	for i := 0; i < 3; i++ {
		p1.Step() // reads row 2 entry i+1, Q stays 2
		if p1.Phase() != PhaseGatherDone {
			t.Fatalf("left gather_done after %d drains", i+1)
		}
	}
	if p1.FreeContains(7) || p1.FreeContains(8) || p1.FreeContains(9) || p1.FreeLen() != 7 {
		t.Fatalf("FREE after drain: %d ids, 7–9 not all gone", p1.FreeLen())
	}
	if p1.PosOf(2) != 4 {
		t.Fatalf("POS(2) = %d, want 4", p1.PosOf(2))
	}
	p1.Step() // reads 0 at row 2 index 4 → Q=3 > m → check
	if p1.Phase() != PhaseCheck {
		t.Fatalf("phase = %v", p1.Phase())
	}
}

// TestIterStepFlagProtocol exercises §6's termination flag end to end by
// direct stepping: process 1 terminates and raises the flag; process 2,
// already past its safety check, must read the flag and terminate
// WITHOUT performing (the Lemma 6.2 mechanism).
func TestIterStepFlagProtocol(t *testing.T) {
	const n, beta = 14, 12
	p1, p2, mem, sink, lay := newPair(n, beta, true)

	// p2 announces its candidate, then pauses.
	p2.Step() // compNext → some job
	p2.Step() // setNext
	target := p2.NextJob()

	// p1 performs jobs until it hits |FREE\TRY| < β and terminates. Each
	// performed job shrinks FREE; with β=12, n=14 and p2's announcement
	// in TRY, p1 stops after two jobs.
	steps := 0
	for p1.Status() == sim.Running {
		p1.Step()
		steps++
		if steps > 1000 {
			t.Fatal("p1 did not terminate")
		}
	}
	if mem.Peek(lay.FlagAddr()) != 1 {
		t.Fatal("termination flag not raised")
	}
	performedByP1 := len(sink.events)
	if performedByP1 == 0 {
		t.Fatal("p1 performed nothing")
	}
	// p1's output must not contain anything performed (Lemma 6.2) nor
	// p2's announced job (it is in p1's TRY).
	for _, e := range sink.events {
		if p1.Output(denseset.New()).Contains(int(e.Job)) {
			t.Fatalf("p1 output contains performed job %d", e.Job)
		}
	}
	if p1.Output(denseset.New()).Contains(int(target)) {
		t.Fatal("p1 output contains p2's announced job")
	}

	// Now p2 resumes: gather, check, and the extra check_flag action.
	sawCheckFlag := false
	steps = 0
	for p2.Status() == sim.Running {
		if p2.Phase() == PhaseCheckFlag {
			sawCheckFlag = true
		}
		p2.Step()
		steps++
		if steps > 1000 {
			t.Fatal("p2 did not terminate")
		}
	}
	for _, e := range sink.events[performedByP1:] {
		if e.PID == 2 {
			t.Fatal("p2 performed a job after the flag was raised")
		}
	}
	_ = sawCheckFlag // p2 may bounce at check instead if its job was taken
	// Either path, Lemma 6.2 must hold for p2's output too.
	for _, e := range sink.events {
		if p2.Output(denseset.New()).Contains(int(e.Job)) {
			t.Fatalf("p2 output contains performed job %d", e.Job)
		}
	}
}

// TestIterStepOutputsComposable: the outputs of a terminated IterStepKK
// round, restricted per process, can seed a NEW round (fresh memory) and
// the union of both rounds' events still satisfies at-most-once — the
// composition IterativeKK relies on (Theorem 6.3).
func TestIterStepOutputsComposable(t *testing.T) {
	const n = 30
	p1, p2, _, sink, _ := newPair(n, 12, true)
	// Run round 1 to completion, interleaved.
	for p1.Status() == sim.Running || p2.Status() == sim.Running {
		if p1.Status() == sim.Running {
			p1.Step()
		}
		if p2.Status() == sim.Running {
			p2.Step()
		}
	}
	round1 := len(sink.events)

	// Round 2: fresh shared memory, inputs = round-1 outputs.
	lay2 := Layout{M: 2, RowLen: n, HasFlag: true}
	mem2 := shmem.NewSim(lay2.Size())
	mk := func(id int, jobs *denseset.Set) *Proc {
		return NewProc(ProcOptions{
			ID: id, Beta: 2, Layout: lay2, Mem: mem2, Jobs: jobs, Sink: sink,
		})
	}
	q1 := mk(1, p1.Output(denseset.New()))
	q2 := mk(2, p2.Output(denseset.New()))
	for q1.Status() == sim.Running || q2.Status() == sim.Running {
		if q1.Status() == sim.Running {
			q1.Step()
		}
		if q2.Status() == sim.Running {
			q2.Step()
		}
	}
	if round1 == len(sink.events) {
		t.Fatal("round 2 performed nothing")
	}
	seen := make(map[int64]bool)
	for _, e := range sink.events {
		if seen[e.Job] {
			t.Fatalf("job %d performed in both rounds — composition unsafe", e.Job)
		}
		seen[e.Job] = true
	}
}
