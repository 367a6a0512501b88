// Crash recovery: at-most-once across process death.
//
// A dispatcher over the durable mmap backend journals every performed
// job in its register file before running the payload. This example
// proves the property the hard way, through internal/lifeline's crash
// drill: it re-executes itself as a child process, the child freezes
// with a round of the job stream genuinely in flight and is killed
// (SIGKILL — no cleanup, no Close, exactly a crash), and the parent then
// reopens the same register files, re-submits the identical stream and
// lets recovery sort out what already ran. Every job appends its id to
// the drill's performed-jobs log when it executes, so duplicates and
// losses are counted from the log itself: both must be zero.
//
// The example runs the kill twice, once per journaling mode:
//
//   - JournalBatch=1 (journal per job): the kill is engineered to land
//     at an action boundary (every worker is parked inside a payload it
//     has already journaled and logged), which is the paper's crash
//     model (§2.1): crashes stop a process between actions. Invariant:
//     zero duplicates AND zero losses.
//   - JournalBatch=16 (group commit, DESIGN.md §7): each worker
//     journals a claim of up to 16 jobs in one vectored write, then runs
//     the payloads. The same kill now lands mid-claim — the frozen
//     worker's whole claim is journaled but only a prefix of its
//     payloads ran, so recovery counts the journaled remainder as
//     performed. Invariant: still zero duplicates, and the loss is
//     bounded by JournalBatch-1 per worker — the crash window the
//     batching knob buys its throughput with.
//
// Run with: go run ./examples/recover
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"atmostonce"
	"atmostonce/internal/lifeline"
)

const (
	totalJobs  = 2000
	workers    = 4
	groupBatch = 16 // JournalBatch of the group-commit scenario
	killAfter  = 40 // payloads to run before the child freezes and dies

	envJB = "AMO_RECOVER_JOURNAL_BATCH"
)

func main() {
	if role, dir := lifeline.Role(); role == "child" {
		childMain(dir) // never returns
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "recover:", err)
		os.Exit(1)
	}
}

func config(dir string, journalBatch int) atmostonce.DispatcherConfig {
	return atmostonce.DispatcherConfig{
		Shards:          1,
		WorkersPerShard: workers,
		MaxBatch:        512,
		Backend:         "mmap:" + filepath.Join(dir, "regs"),
		JournalBatch:    journalBatch,
		MaxJobs:         totalJobs,
	}
}

// childMain is the doomed incarnation: submit the whole stream, let the
// dispatcher perform killAfter jobs, freeze every worker inside a
// payload, say FROZEN and wait for the parent's SIGKILL.
func childMain(dir string) {
	jb, err := strconv.Atoi(os.Getenv(envJB))
	if err != nil {
		lifeline.Fatal(fmt.Errorf("bad %s: %w", envJB, err))
	}
	log, err := lifeline.OpenLog(dir)
	if err != nil {
		lifeline.Fatal(err)
	}
	d, err := atmostonce.NewDispatcher(config(dir, jb))
	if err != nil {
		lifeline.Fatal(err)
	}
	// Each payload logs its job, the job's observable effect. From the
	// killAfter-th on it parks its worker with its journal record and its
	// log record both written, so the kill is an action-boundary crash.
	var performed, frozen atomic.Int64
	tasks := make([]atmostonce.Task, totalJobs)
	for i := range tasks {
		id := i + 1
		tasks[i].Fn = func(context.Context) error {
			err := log.Append(id)
			if performed.Add(1) >= killAfter {
				frozen.Add(1)
				select {}
			}
			return err
		}
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		lifeline.Fatal(err)
	}
	// Wait until every worker is frozen mid-round (the parent's deadline
	// bounds this), flush the mapping for good measure (same-machine
	// recovery reads the page cache either way), and wait to die.
	for frozen.Load() < workers {
		runtime.Gosched()
	}
	if err := d.Sync(); err != nil {
		lifeline.Fatal(err)
	}
	fmt.Println("FROZEN")
	time.Sleep(time.Minute)
	lifeline.Fatal(fmt.Errorf("never killed"))
}

func run() error {
	if err := runScenario(1); err != nil {
		return fmt.Errorf("journal-per-job: %w", err)
	}
	if err := runScenario(groupBatch); err != nil {
		return fmt.Errorf("group-commit (JournalBatch=%d): %w", groupBatch, err)
	}
	return nil
}

// runScenario kills a child mid-stream and recovers, at one JournalBatch
// setting. jb=1 demands zero loss (the kill lands at action boundaries);
// jb>1 allows the group-commit crash window — journaled claims whose
// payloads never ran — but bounds it at jb-1 per worker and still
// demands zero duplicates.
func runScenario(jb int) error {
	fmt.Printf("--- JournalBatch=%d ---\n", jb)
	dir, err := os.MkdirTemp("", "amo-recover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Incarnation 1: run ourselves as the child and kill it once frozen.
	cmd, err := lifeline.Command("child", dir, envJB+"="+strconv.Itoa(jb))
	if err != nil {
		return err
	}
	if err := lifeline.Start(cmd, time.Minute, "FROZEN"); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	cmd.Process.Kill() // mid-round: this is the crash
	cmd.Wait()
	counts, err := lifeline.Counts(dir, 1, totalJobs+1)
	if err != nil {
		return err
	}
	_, _, crashed := lifeline.Verdict(counts)
	fmt.Printf("child killed mid-round after performing %d of %d jobs\n", crashed, totalJobs)

	// Incarnation 2: reopen the same register files and re-submit the
	// identical stream. Recovery resolves everything the child already
	// performed; the rest — including the round the kill cut off — runs
	// exactly once.
	log, err := lifeline.OpenLog(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	d, err := atmostonce.NewDispatcher(config(dir, jb))
	if err != nil {
		return err
	}
	defer d.Close()
	tasks := make([]atmostonce.Task, totalJobs)
	for i := range tasks {
		id := i + 1
		tasks[i].Fn = func(context.Context) error { return log.Append(id) }
	}
	if _, err := d.DoBatch(context.Background(), tasks); err != nil {
		return err
	}
	d.Flush()
	st := d.Stats()
	if err := d.Close(); err != nil {
		return err
	}

	// The verdict comes from the log: every id exactly once, across both
	// incarnations.
	if counts, err = lifeline.Counts(dir, 1, totalJobs+1); err != nil {
		return err
	}
	dup, lost, _ := lifeline.Verdict(counts)
	fmt.Printf("restart recovered %d journaled jobs, performed the remaining %d\n",
		st.Recovered, st.Performed-st.Recovered)
	fmt.Printf("after recovery: %d duplicates, %d lost, %d/%d jobs done exactly once\n",
		dup, lost, totalJobs-dup-lost, totalJobs)

	// The journal is the recovery oracle: every record it held must match
	// a child log line (payload ran) or a counted loss (claim journaled,
	// payload never ran — possible only in the group-commit window).
	if st.Recovered != uint64(crashed+lost) {
		return fmt.Errorf("recovered %d journaled jobs, but the child logged %d and %d were lost",
			st.Recovered, crashed, lost)
	}
	if dup > 0 {
		return fmt.Errorf("at-most-once violated across the crash: %d duplicates", dup)
	}
	if maxLost := workers * (jb - 1); lost > maxLost {
		return fmt.Errorf("%d jobs lost across the crash; the group-commit window bounds loss at %d (%d workers × (JournalBatch-1))",
			lost, maxLost, workers)
	}
	return nil
}
