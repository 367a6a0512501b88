package verify

import (
	"errors"
	"testing"

	"atmostonce/internal/shmem"
	"atmostonce/internal/sim"
)

// greedyProc is a DELIBERATELY UNSAFE at-most-once attempt: each process
// scans a shared done-bitmap, picks the lowest unclaimed job, performs it
// and only then marks it. Classic check-then-act race — two processes can
// read "unclaimed" concurrently and both perform the job. The model
// checker must find the violation and produce a replayable witness;
// this is the mutation test proving the checker has teeth.
type greedyProc struct {
	sim.Base
	n      int
	target int // job selected by the last scan (0 = none)
	phase  int // 0 = scan, 1 = do, 2 = mark
	mem    shmem.Mem
}

var _ Snapshottable = (*greedyProc)(nil)

func (p *greedyProc) Step() {
	switch p.phase {
	case 0: // scan the bitmap (reads, one per job — coarse but fine here)
		p.target = 0
		for j := 1; j <= p.n; j++ {
			if p.mem.Read(j-1) == 0 {
				p.target = j
				break
			}
		}
		if p.target == 0 {
			p.End()
			return
		}
		p.phase = 1
	case 1: // perform WITHOUT having claimed
		p.Do(int64(p.target))
		p.phase = 2
	case 2: // mark done (too late)
		p.mem.Write(p.target-1, 1)
		p.phase = 0
	}
}

func (p *greedyProc) SaveState() any { c := *p; return &c }

func (p *greedyProc) LoadState(snapshot any) {
	if c, ok := snapshot.(*greedyProc); ok {
		*p = *c
	}
}

func (p *greedyProc) AppendState(buf []byte) []byte {
	if p.Status() == sim.Crashed {
		return append(buf, 0xFF)
	}
	return append(buf, byte(p.Status()), byte(p.phase), byte(p.target))
}

// TestModelCheckerCatchesUnsafeAlgorithm: the checker must refute the
// greedy algorithm with an at-most-once violation.
func TestModelCheckerCatchesUnsafeAlgorithm(t *testing.T) {
	const n = 2
	mem := shmem.NewSim(n)
	a := &greedyProc{Base: sim.NewBase(1, nil), n: n, mem: mem}
	b := &greedyProc{Base: sim.NewBase(2, nil), n: n, mem: mem}
	_, err := ExploreProcs(ExploreOpts{Procs: []Snapshottable{a, b}, Mem: mem, Jobs: n})
	var v *MCViolationError
	if !errors.As(err, &v) {
		t.Fatalf("checker missed the race: err = %v", err)
	}
	if v.Kind != "at-most-once" {
		t.Fatalf("violation kind = %q, want at-most-once", v.Kind)
	}
	if len(v.Witness) == 0 {
		t.Fatal("no witness schedule")
	}
	t.Logf("counterexample found, witness length %d: %v", len(v.Witness), v.Witness)

	// Replay the witness through the real engine and confirm it
	// reproduces the duplicate — end-to-end validation of the witness.
	mem2 := shmem.NewSim(n)
	w := sim.Assemble(2, n, mem2, 1, func(id int, sink sim.DoSink) sim.Process {
		return &greedyProc{Base: sim.NewBase(id, sink), n: n, mem: mem2}
	}).KeepEvents()
	res, err := sim.Run(w, &sim.Scripted{Script: v.Witness, Then: &sim.RoundRobin{}}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckEvents(res.Events)
	if rep.OK() {
		t.Fatal("witness replay did not reproduce the violation")
	}
	t.Logf("witness replay reproduced: %v", rep.Err())
}

// TestModelCheckerCatchesEffectivenessGap: an algorithm that gives up too
// early must be refuted by the terminal predicate.
func TestModelCheckerCatchesEffectivenessGap(t *testing.T) {
	const n = 3
	mem := shmem.NewSim(n)
	// A "lazy" process that performs only job 1 and stops.
	lazy := &greedyProc{Base: sim.NewBase(1, nil), n: 1 /* sees only job 1 */, mem: mem}
	_, err := ExploreProcs(ExploreOpts{
		Procs: []Snapshottable{lazy},
		Mem:   mem,
		Jobs:  n,
		OnTerminal: func(performed map[int64]int, witness []sim.Decision) *MCViolationError {
			if len(performed) < n {
				return &MCViolationError{Kind: "effectiveness", Detail: "left jobs behind", Witness: witness}
			}
			return nil
		},
	})
	var v *MCViolationError
	if !errors.As(err, &v) || v.Kind != "effectiveness" {
		t.Fatalf("terminal predicate not enforced: %v", err)
	}
}
